// Command bench is the repository's benchmark: four workloads at the
// paper's dimensions, four end-to-end metrics, and a traced run that
// splits each op across the plf, ooc and service layers. BENCHMARK.json
// at the repository root declares what it prints; README.md in this
// directory says why.
//
//	go run ./bench -workload trav-ooc [-seed 42] [-seconds 15] [-trace 1]
//	go run ./bench -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one declared metric; BENCHMARK.json lists the same names
// and units in the same order (bench_test.go holds the two together).
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// bounds is the share of the parent's median by which each end-to-end
// metric may worsen before a change counts as a regression. They are as
// wide as a benchmark may declare because this sandbox is that noisy:
// the same binary on the same inputs moves by a tenth between runs (see
// README.md, "Steadiness").
var bounds = map[string]float64{"setup_s": 0.25, "ops_per_s": 0.25, "op_p50_ms": 0.25, "op_p90_ms": 0.25}

var perLayer = []metric{
	{"plf.self_s", "s"},
	{"plf.newview_ns_per_site", "ns"},
	{"plf.newviews", "count"},
	{"plf.evaluations", "count"},
	{"plf.sum_tables", "count"},
	{"plf.newton_iters", "count"},
	{"plf.pcache_hit_ratio", "ratio"},
	{"ooc.manager.vector_s", "s"},
	{"ooc.manager.self_s", "s"},
	{"ooc.manager.requests", "count"},
	{"ooc.manager.miss_ratio", "ratio"},
	{"ooc.manager.read_ratio", "ratio"},
	{"ooc.manager.slot_bytes", "bytes"},
	{"ooc.manager.stall_s", "s"},
	{"ooc.manager.join_wait_s", "s"},
	{"ooc.manager.buffer_wait_s", "s"},
	{"ooc.manager.overlapped_bytes", "bytes"},
	{"ooc.checksum.self_s", "s"},
	{"ooc.checksum.ns_per_byte", "ns"},
	{"ooc.filestore.read_s", "s"},
	{"ooc.filestore.write_s", "s"},
	{"ooc.filestore.reads", "count"},
	{"ooc.filestore.writes", "count"},
	{"ooc.filestore.bytes_read", "bytes"},
	{"ooc.filestore.bytes_written", "bytes"},
	{"ooc.filestore.write_mb_per_s", "MB/s"},
	{"search.moves_tested", "count"},
	{"search.moves_accepted", "count"},
	{"search.lnl_gain", "lnL"},
	{"service.http_ms_p50", "ms"},
	{"service.batch_wait_ms_p50", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.batch_size_mean", "count"},
	{"service.refused", "count"},
	{"ooc.tiered.cache_hit_ratio", "ratio"},
	{"ooc.tiered.gets_per_op", "count"},
	{"ooc.tiered.remote_vectors_read", "count"},
	{"ooc.tiered.bytes_fetched", "bytes"},
	{"ooc.tiered.bytes_pushed", "bytes"},
	{"ooc.tiered.coalesced", "count"},
	{"ooc.tiered.single_flight", "count"},
	{"ooc.tiered.dirty_writebacks", "count"},
	{"ooc.tiered.remote_latency_ms_p50", "ms"},
	{"ooc.remote.requests", "count"},
	{"ooc.remote.bytes", "bytes"},
	{"ooc.remote.injected_s", "s"},
	{"setup.sim_s", "s"},
	{"setup.reference_s", "s"},
	{"setup.open_store_s", "s"},
	{"setup.first_traversal_s", "s"},
	{"setup.warmup_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.unattributed_ratio", "ratio"},
	{"bench.go_sys_mb", "MB"},
	{"bench.gc_pause_ms", "ms"},
	{"bench.gc_cycles", "count"},
}

// options is one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed phase length; ignored when ops > 0
	ops      int     // fixed number of timed ops, for exactly repeatable counts
	trace    bool
	scale    string
	out      string // directory for the trace file and scratch data
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	timed timed
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle of xs, the mean of the middle two when even.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// run sets the workload up (several times, for a steady setup_s),
// measures it once and derives the metrics of the requested kind.
func run(opt options) (*report, error) {
	sc, ok := scales[opt.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", opt.scale)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}

	var (
		inst      instance
		dir       string
		setups    []float64
		lastSetup int64
	)
	teardown := func() error {
		err := inst.close()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	for i := 0; i < sc.setups; i++ {
		if inst != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		var err error
		if dir, err = os.MkdirTemp(opt.out, "run-*"); err != nil {
			return nil, err
		}
		if rec != nil {
			lastSetup = rec.now()
		}
		t0 := time.Now()
		inst, err = w.setup(&env{seed: opt.seed, sc: sc, rec: rec, dir: dir})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	t, err := inst.measure(func(done int, elapsed time.Duration) bool {
		if opt.ops > 0 {
			return done < opt.ops
		}
		return done < sc.minOps || elapsed.Seconds() < opt.seconds
	})
	if rec != nil {
		rec.timing.Store(false)
	}
	runtime.ReadMemStats(&mem1)
	if err != nil {
		teardown()
		return nil, fmt.Errorf("timed phase: %w", err)
	}

	r := &report{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]value),
		timed:     t,
	}
	got := make(map[string]float64)
	declared := endToEnd
	if rec == nil {
		lat := make([]float64, len(t.lat))
		for i, d := range t.lat {
			lat[i] = ms(d)
		}
		got["setup_s"] = median(setups)
		// A failed op earns no throughput, as it earns no latency.
		got["ops_per_s"] = float64(t.attempted-t.failed) / t.wall.Seconds()
		got["op_p50_ms"] = percentile(lat, 50)
		got["op_p90_ms"] = percentile(lat, 90)
	} else {
		declared = perLayer
		inst.layers(t, got)
		for k, name := range map[kind]string{
			kSetupSim: "setup.sim_s", kSetupReference: "setup.reference_s", kSetupOpenStore: "setup.open_store_s",
			kSetupFirstTraversal: "setup.first_traversal_s", kSetupWarmup: "setup.warmup_s",
		} {
			got[name] = rec.phaseSeconds(k, lastSetup)
		}
		var spans int64
		for k := range rec.totals {
			spans += rec.totals[k].calls.Load()
		}
		got["bench.trace_overhead_ratio"] = float64(spans) * rec.spanCost.Seconds() / t.wall.Seconds()
		got["bench.go_sys_mb"] = float64(mem1.Sys) / 1e6
		got["bench.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
		got["bench.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	}
	for _, m := range declared {
		r.Metrics[m.name] = value{got[m.name], m.unit}
		delete(got, m.name)
	}
	for name := range got {
		teardown()
		return nil, fmt.Errorf("metric %q is computed but not declared", name)
	}
	if err := teardown(); err != nil {
		return nil, err
	}
	if rec != nil {
		if err := rec.writeChrome(filepath.Join(opt.out, "trace-"+opt.workload+".json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func main() {
	var opt options
	var trace, aa int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: trav-ram, trav-ooc, search-ooc or serve-remote")
	flag.Int64Var(&opt.seed, "seed", 42, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&opt.ops, "ops", 0, "run exactly this many timed ops instead of -seconds, so count metrics repeat exactly")
	flag.IntVar(&trace, "trace", 0, "1 records spans, prints the per-layer metrics and writes <out>/trace-<workload>.json")
	flag.StringVar(&opt.scale, "scale", "full", "full, or smoke for toy inputs")
	flag.StringVar(&opt.out, "out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	flag.IntVar(&aa, "aa", 0, "run every workload N times as side A and N times as side B of this binary and compare them")
	flag.Parse()
	opt.trace = trace != 0
	// The kernels run one worker; the extra Ps serve the I/O pipeline,
	// the daemon and the clients. Capped so a bigger box measures the
	// same program.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	if aa > 0 {
		if err := runAA(aa, opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	r, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d scale=%s GOMAXPROCS=%d: %d ops attempted, %d failed, %d latency samples, %.3f s timed\n",
		opt.workload, opt.seed, opt.scale, procs, r.Attempted, r.Failed, len(r.timed.lat), r.timed.wall.Seconds())
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}
