package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/plf"
	"oocphylo/internal/service"
)

const (
	serveSession = "bench"
	serveClients = 2
)

// remoteDevice prices the loopback object store: a same-region object
// service, 5 ms per request plus 500 MB/s.
var remoteDevice = iosim.Device{Name: "object", Latency: 5 * time.Millisecond, Bandwidth: 500e6}

// serveInst is serve-remote: the daemon behind a real TCP listener,
// one out-of-core session whose vectors live on the priced object
// store behind a local cache, and closed-loop clients asking for the
// likelihood at seeded edges.
type serveInst struct {
	rec     *recorder
	in      *inputs
	cycle   []int
	ref     []uint64
	objects *remote.Server
	srv     *service.Server
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve returns
	clients [serveClients]*service.Client
	next    atomic.Int64 // ops issued since set-up; indexes the cycle

	// Ledgers at the start of the timed phase.
	reg0                *obs.Snapshot
	remoteOps, remoteBy int64
	remoteT             time.Duration
	// Per-request reply fields of the timed phase.
	mu          sync.Mutex
	httpMs      []float64
	waitMs      []float64
	execMs      []float64
	batchSizes  int64
	replies     int64
	refused     int64
	newviews    int64
	latencySum  time.Duration
	vectorBytes int64
}

func setupServe(e *env) (instance, error) {
	w := &serveInst{rec: e.rec}
	err := e.rec.phase(kSetupSim, func() (err error) {
		w.in, err = newInputs(e.sc.serve.taxa, e.sc.serve.sites, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.rec.phase(kSetupReference, func() (err error) {
		w.cycle = edgeCycle(e.seed, 2*e.sc.serve.taxa-3, e.sc.serveCycle)
		w.ref, err = referenceBits(w.in, w.cycle)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.rec.phase(kSetupOpenStore, func() error { return w.open(e) })
	if err == nil {
		err = e.rec.phase(kSetupFirstTraversal, func() error { return w.warm(1) })
	}
	if err == nil {
		err = e.rec.phase(kSetupWarmup, func() error { return w.warm(e.sc.warmServe) })
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// open starts the object store, the daemon and its listener, and
// creates the session.
func (w *serveInst) open(e *env) (err error) {
	if w.objects, err = remote.NewServer(remote.ServerConfig{Device: remoteDevice}); err != nil {
		return err
	}
	m, err := w.in.newModel()
	if err != nil {
		return err
	}
	w.vectorBytes = int64(e.sc.serve.taxa-2) * int64(plf.VectorLength(m, w.in.pats.NumPatterns())) * 8
	w.srv, err = service.NewServer(service.ServerConfig{
		DataDir:     filepath.Join(e.dir, "daemon"),
		StoreURL:    w.objects.URL(),
		CacheBytes:  w.vectorBytes / 2,
		RemoteLanes: 2,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) // returns once close() shuts the server down
	}()
	for i := range w.clients {
		w.clients[i] = service.NewClient(ln.Addr().String())
		// A refusal is a failed op, not something to hide behind a retry.
		w.clients[i].SetRetryBudget(0)
		w.clients[i].SetTrace(w.rec != nil)
	}
	_, err = w.clients[0].CreateSession(service.SessionConfig{
		Name: serveSession, Alignment: w.in.phylip, Newick: w.in.newick,
		Model: "GTR", Alpha: gammaAlpha, Cats: 4,
		MemLimit: w.vectorBytes / 4,
	})
	return err
}

// drive runs closed-loop clients: each sends its next request when the
// previous reply is in. issue claims the next op index or reports the
// phase over; done receives every reply.
func (w *serveInst) drive(issue func() (int, bool), done func(client, op int, lat time.Duration, start time.Time, rep service.EvalReply, err error)) {
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				op, ok := issue()
				if !ok {
					return
				}
				t0 := time.Now()
				rep, err := w.clients[c].Evaluate(serveSession, service.EvalSpec{Edge: w.cycle[op%len(w.cycle)]})
				done(c, op, time.Since(t0), t0, rep, err)
			}
		}(c)
	}
	wg.Wait()
}

func (w *serveInst) warm(n int) error {
	var first atomic.Pointer[error]
	left := atomic.Int64{}
	left.Store(int64(n))
	w.drive(
		func() (int, bool) {
			if left.Add(-1) < 0 {
				return 0, false
			}
			return int(w.next.Add(1) - 1), true
		},
		func(_, _ int, _ time.Duration, _ time.Time, _ service.EvalReply, err error) {
			if err != nil {
				first.CompareAndSwap(nil, &err)
			}
		})
	if p := first.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *serveInst) measure(more func(int, time.Duration) bool) (timed, error) {
	var t timed
	w.reg0 = w.srv.Registry().Snapshot()
	clock := w.objects.Clock()
	w.remoteOps, w.remoteBy, w.remoteT = clock.Ops(), clock.Bytes(), clock.Elapsed()

	w.rec.startTiming()
	start := time.Now()
	var issued atomic.Int64
	type answer struct {
		op   int
		bits uint64
	}
	var answers []answer
	w.drive(
		func() (int, bool) {
			// Claim a slot first so a fixed op count is hit exactly.
			n := int(issued.Add(1) - 1)
			if !more(n, time.Since(start)) {
				return 0, false
			}
			return int(w.next.Add(1) - 1), true
		},
		func(c, op int, lat time.Duration, t0 time.Time, rep service.EvalReply, err error) {
			want := w.ref[op%len(w.cycle)]
			ok := err == nil && rep.LnLBits == service.FormatLnLBits(math.Float64frombits(want))
			w.mu.Lock()
			defer w.mu.Unlock()
			t.attempted++
			answers = append(answers, answer{op, math.Float64bits(rep.LnL)})
			if !ok {
				t.failed++
				if err != nil && strings.Contains(err.Error(), "status 503") {
					w.refused++
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "serve-remote:", err)
				}
				return
			}
			t.lat = append(t.lat, lat)
			w.note(c, lat, t0, rep)
		})
	t.wall = time.Since(start)
	sort.Slice(answers, func(i, j int) bool { return answers[i].op < answers[j].op })
	for _, a := range answers {
		t.lnlBits = append(t.lnlBits, a.bits)
	}
	return t, nil
}

// note splits one reply's latency with the ledger the daemon returns:
// what is neither batch wait nor engine pass is http (client, loopback
// TCP, JSON, handler). Called with w.mu held.
func (w *serveInst) note(client int, lat time.Duration, t0 time.Time, rep service.EvalReply) {
	wait := time.Duration(rep.WaitMicros) * time.Microsecond
	exec := time.Duration(rep.ExecMicros) * time.Microsecond
	httpT := lat - wait - exec
	w.httpMs = append(w.httpMs, ms(httpT))
	w.waitMs = append(w.waitMs, ms(wait))
	w.execMs = append(w.execMs, ms(exec))
	w.batchSizes += int64(rep.BatchSize)
	w.replies++
	w.latencySum += lat
	if rep.Cost != nil {
		w.newviews += rep.Cost.Newviews
	}
	if w.rec == nil {
		return
	}
	// The reply carries durations, not server timestamps: centre the
	// server's share inside the request.
	track := kHTTP.track() + client
	begin := int64(t0.Sub(w.rec.epoch))
	op := w.rec.emit(kOp, track, -1, begin, int64(lat))
	w.rec.emit(kHTTP, track, op, begin, int64(lat))
	at := begin + int64(httpT)/2
	w.rec.emit(kBatchWait, track, op, at, int64(wait))
	w.rec.emit(kExec, track, op, at+int64(wait), int64(exec))
}

func (w *serveInst) layers(t timed, m map[string]float64) {
	m["service.http_ms_p50"] = percentile(w.httpMs, 50)
	m["service.batch_wait_ms_p50"] = percentile(w.waitMs, 50)
	m["service.exec_ms_p50"] = percentile(w.execMs, 50)
	if w.replies > 0 {
		m["service.batch_size_mean"] = float64(w.batchSizes) / float64(w.replies)
	}
	m["service.refused"] = float64(w.refused)
	m["plf.newviews"] = float64(w.newviews)

	reg := w.srv.Registry().Snapshot()
	delta := func(name string) float64 {
		return float64(reg.Counters[name] - w.reg0.Counters[name])
	}
	ses := "svc.session." + serveSession + "."
	req := delta(ses + "ooc_requests")
	m["ooc.manager.requests"] = req
	if req > 0 {
		m["ooc.manager.miss_ratio"] = delta(ses+"ooc_misses") / req
	}
	m["ooc.manager.slot_bytes"] = float64(w.vectorBytes / 4)
	tier := ses + "tier."
	if hits, misses := delta(tier+"cache_hits"), delta(tier+"cache_misses"); hits+misses > 0 {
		m["ooc.tiered.cache_hit_ratio"] = hits / (hits + misses)
	}
	if t.attempted > 0 {
		m["ooc.tiered.gets_per_op"] = delta(tier+"remote_reads") / float64(t.attempted)
	}
	for _, name := range []string{"remote_vectors_read", "bytes_fetched", "bytes_pushed", "coalesced", "single_flight", "dirty_writebacks"} {
		m["ooc.tiered."+name] = delta(tier + name)
	}
	m["ooc.tiered.remote_latency_ms_p50"] = reg.Histograms[tier+"remote_seconds"].P50 * 1e3

	clock := w.objects.Clock()
	m["ooc.remote.requests"] = float64(clock.Ops() - w.remoteOps)
	m["ooc.remote.bytes"] = float64(clock.Bytes() - w.remoteBy)
	m["ooc.remote.injected_s"] = (clock.Elapsed() - w.remoteT).Seconds()

	// Every client is either inside a request or between two: the part
	// of the clients' wall not covered by a reply is the harness.
	busy := float64(serveClients) * t.wall.Seconds()
	m["bench.unattributed_ratio"] = (busy - w.latencySum.Seconds()) / busy
}

// close deletes the session (a park would push every dirty vector to
// the priced store), then stops listener, daemon and object store, and
// waits for the serve goroutine.
func (w *serveInst) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if w.srv != nil {
		if _, ok := w.srv.Session(serveSession); ok {
			keep(w.srv.DeleteSession(serveSession))
		}
	}
	if w.httpSrv != nil {
		keep(w.httpSrv.Close())
		<-w.served
	}
	if w.srv != nil {
		keep(w.srv.Close())
	}
	if w.objects != nil {
		keep(w.objects.Close())
	}
	return first
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
