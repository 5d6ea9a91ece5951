// Package experiments contains one driver per figure of the paper's
// evaluation (§4), shared by cmd/figures and the top-level benchmark
// suite:
//
//   - Figures 2 and 3: vector miss rate and (with read skipping) read
//     rate during a tree search, for the four replacement strategies at
//     memory fractions f ∈ {0.25, 0.5, 0.75}.
//   - Figure 4: miss rate of the Random strategy as f is halved down to
//     five RAM slots.
//   - Figure 5: elapsed time of five full tree traversals, standard
//     version under (simulated) OS paging versus the out-of-core
//     version confined to a fixed RAM budget, as the ancestral-vector
//     footprint grows past physical memory.
//
// Paper-scale dimensions (1288/1908 taxa for Figures 2-4, 8192 taxa and
// 1-32 GB footprints for Figure 5) run in minutes; the defaults used by
// `go test -bench` are scaled down but preserve every ratio the figures
// turn on (the f values and the footprint/RAM over-subscription span).
//
// Every run is brought to life the way oocraxml brings one to life: a
// workload (workload.go: one simulated dataset and start tree) opens
// each arm through analysis.Size and analysis.Open. The one exception
// is Figure 5's paging baseline, which is the paper's and not ours.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
	"oocphylo/internal/vm"
)

// StrategyNames lists the paper's four replacement strategies in its
// plotting order.
var StrategyNames = []string{"Topological", "LFU", "RAND", "LRU"}

// SearchWorkloadConfig describes the Figures 2-4 workload: an ML tree
// search on a simulated dataset of the paper's dimensions.
type SearchWorkloadConfig struct {
	// Taxa and Sites set the dataset dimensions (paper: 1288×1200 and
	// 1908×1424).
	Taxa, Sites int
	// Seed fixes dataset and starting tree.
	Seed int64
	// SPRRadius and Rounds bound the search effort.
	SPRRadius, Rounds int
}

func (c *SearchWorkloadConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 128
	}
	if c.Sites == 0 {
		c.Sites = 200
	}
	if c.SPRRadius == 0 {
		c.SPRRadius = 5
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
}

// MissRateResult is one point of Figures 2-4.
type MissRateResult struct {
	// Strategy is the replacement policy name.
	Strategy string
	// F is the fraction of vectors held in RAM; Slots the resulting m.
	F     float64
	Slots int
	// Stats are the manager's counters over the whole search.
	Stats ooc.Stats
	// LnL is the final likelihood (identical across strategies and f by
	// the paper's determinism argument — verified in tests).
	LnL float64
}

// newSearchWorkload simulates cfg's dataset and its random start tree.
func newSearchWorkload(cfg SearchWorkloadConfig) (*workload, error) {
	return newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, true)
}

// runSearchWorkload runs the standard tree-search workload out of core
// at memory fraction f over an in-RAM store and returns the counters.
// Under the generic kernels every record is full width, so the pool is
// the paper's m slots and the rates are the paper's quantity.
func runSearchWorkload(w *workload, cfg SearchWorkloadConfig, strategyName string, f float64, readSkip bool) (MissRateResult, error) {
	res := MissRateResult{Strategy: strategyName, F: f}
	r, err := w.run(arm{
		Fraction: f, Strategy: strategyName, NoReadSkipping: !readSkip,
		Kernel: plf.KernelGeneric,
		Stack:  ooc.StackSpec{Base: w.memStore()},
	}, func(r *analysis.Run) (err error) {
		res.LnL, err = searchWorkload(r.Engine, cfg)
		return err
	})
	if err != nil {
		return res, err
	}
	if r.Manager != nil { // a fraction that holds every vector runs in RAM
		res.Slots = r.Manager.Slots()
		res.Stats = r.Manager.Stats()
	}
	return res, nil
}

// RunFigure2 reproduces Figure 2 (and, with readSkip = true, Figure 3):
// the four strategies at the given memory fractions. Fractions default
// to the paper's {0.25, 0.50, 0.75}.
func RunFigure2(cfg SearchWorkloadConfig, fractions []float64, readSkip bool) ([]MissRateResult, error) {
	cfg.fill()
	if len(fractions) == 0 {
		fractions = []float64{0.25, 0.50, 0.75}
	}
	w, err := newSearchWorkload(cfg)
	if err != nil {
		return nil, err
	}
	var out []MissRateResult
	for _, name := range StrategyNames {
		for _, f := range fractions {
			r, err := runSearchWorkload(w, cfg, name, f, readSkip)
			if err != nil {
				return nil, fmt.Errorf("strategy %s f=%v: %w", name, f, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// RunFigure4 reproduces Figure 4: the Random strategy with the memory
// fraction halved from startF until only minSlots slots remain (the
// paper halts at five).
func RunFigure4(cfg SearchWorkloadConfig, startF float64, minSlots int) ([]MissRateResult, error) {
	cfg.fill()
	if startF == 0 {
		startF = 0.75
	}
	if minSlots < ooc.MinSlots {
		minSlots = 5 // the paper's smallest configuration
	}
	w, err := newSearchWorkload(cfg)
	if err != nil {
		return nil, err
	}
	floorF := float64(minSlots) / float64(w.tree.NumInner())
	var out []MissRateResult
	for f := startF; ; f /= 2 {
		r, err := runSearchWorkload(w, cfg, "RAND", math.Max(f, floorF), false)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && r.Slots == out[len(out)-1].Slots {
			break
		}
		r.F = f
		out = append(out, r)
		if r.Slots == minSlots {
			break
		}
	}
	return out, nil
}

// WriteMissRateTable renders Figure 2/3/4 results as an aligned text
// table mirroring the paper's plots (one row per strategy×f).
func WriteMissRateTable(w io.Writer, results []MissRateResult, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %7s %7s %10s %10s %10s %12s\n",
		"strategy", "f", "slots", "requests", "miss%", "read%", "lnL")
	sorted := append([]MissRateResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Strategy != sorted[j].Strategy {
			return sorted[i].Strategy < sorted[j].Strategy
		}
		return sorted[i].F < sorted[j].F
	})
	for _, r := range sorted {
		fmt.Fprintf(w, "%-12s %7.4f %7d %10d %9.2f%% %9.2f%% %12.2f\n",
			r.Strategy, r.F, r.Slots, r.Stats.Requests,
			100*r.Stats.MissRate(), 100*r.Stats.ReadRate(), r.LnL)
	}
}

// Figure5Config describes the §4.3 real-test-case experiment.
type Figure5Config struct {
	// Taxa is the tree size (paper: 8192).
	Taxa int
	// Widths are the alignment widths to sweep; each implies an
	// ancestral-vector footprint of (Taxa-2)·8·4·cats·width bytes.
	Widths []int
	// RAMBytes is the machine's physical memory available to ancestral
	// vectors; the standard version pages against this budget (paper:
	// 2 GB machine).
	RAMBytes int64
	// Seed fixes the simulated dataset.
	Seed int64
}

// figure5Traversals is the paper's -f z workload: five full traversals.
const figure5Traversals = 5

// figure5Device is the one modelled disk both designs are charged
// against: the pager's swap and the out-of-core backing file.
var figure5Device = iosim.HDD()

// oocBytes is the out-of-core runs' -L: half the machine, as the paper
// confined its runs to 1 GB on the 2 GB machine.
func (c Figure5Config) oocBytes() int64 { return c.RAMBytes / 2 }

func (c *Figure5Config) fill() {
	if c.Taxa == 0 {
		// Fewer taxa but paper-proportioned vectors: at these widths each
		// ancestral vector spans hundreds of 4 KiB pages, like the
		// paper's 8192-taxon × multi-thousand-site datasets (a 10k-site
		// DNA Γ4 vector is 1.28 MB = 320 pages, §3.1).
		c.Taxa = 64
	}
	if c.RAMBytes == 0 {
		c.RAMBytes = 24 << 20
	}
	if len(c.Widths) == 0 {
		// Footprint sweep crossing the RAM budget, mirroring the paper's
		// 1-32 GB on a 2 GB machine: from fits-in-RAM to ~16x over.
		c.Widths = []int{128, 256, 512, 1024, 2048, 4096}
	}
}

// Figure5Row is one x-position of Figure 5.
type Figure5Row struct {
	// Sites is the alignment width.
	Sites int
	// FootprintBytes is the total ancestral-vector memory requirement
	// (the figure's x axis).
	FootprintBytes int64
	// OverSubscription is FootprintBytes / RAMBytes.
	OverSubscription float64
	// StandardIO / OOCLRUIO / OOCRandIO are the modelled I/O times.
	// The out-of-core runs store each vector's class-major prefix, a
	// design the paper did not have; OOCFullIO is the LRU run under the
	// generic kernel, whose records are full width like the paper's.
	StandardIO, OOCLRUIO, OOCRandIO, OOCFullIO time.Duration
	// StandardCompute etc. are the measured CPU times of the same
	// workload (identical numerics, so they differ only by noise; the
	// generic kernel computes every site, so OOCFullCompute is larger).
	StandardCompute, OOCLRUCompute, OOCRandCompute, OOCFullCompute time.Duration
	// MajorFaults is the paging simulator's fault count (the paper
	// reports page-fault counts rising from 346,861 to 902,489).
	MajorFaults int64
	// OOCLRUMisses / OOCRandMisses are the managers' vector misses.
	OOCLRUMisses, OOCRandMisses int64
	// LnLStandard and LnLOOC must match exactly (correctness guard).
	LnLStandard, LnLOOC float64
}

// StandardTotal returns modelled I/O plus measured compute.
func (r Figure5Row) StandardTotal() time.Duration { return r.StandardIO + r.StandardCompute }

// OOCLRUTotal returns modelled I/O plus measured compute.
func (r Figure5Row) OOCLRUTotal() time.Duration { return r.OOCLRUIO + r.OOCLRUCompute }

// OOCRandTotal returns modelled I/O plus measured compute.
func (r Figure5Row) OOCRandTotal() time.Duration { return r.OOCRandIO + r.OOCRandCompute }

// OOCFullTotal returns modelled I/O plus measured compute.
func (r Figure5Row) OOCFullTotal() time.Duration { return r.OOCFullIO + r.OOCFullCompute }

// RunFigure5 reproduces Figure 5: for each alignment width, the same
// five-full-traversal workload is executed four times — standard
// storage over simulated OS paging, and out-of-core with LRU and with
// Random replacement under the same RAM budget, plus LRU with
// full-width records (the paper's design) — and each run's modelled
// I/O time is charged to the same disk model.
func RunFigure5(cfg Figure5Config) ([]Figure5Row, error) {
	cfg.fill()
	var out []Figure5Row
	for _, width := range cfg.Widths {
		row, err := runFigure5Row(cfg, width)
		if err != nil {
			return nil, fmt.Errorf("width %d: %w", width, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func runFigure5Row(cfg Figure5Config, width int) (Figure5Row, error) {
	row := Figure5Row{Sites: width}
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: width, Seed: cfg.Seed}, false)
	if err != nil {
		return row, err
	}
	d, dev := w.data, figure5Device
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	n := d.Tree.NumInner()
	row.FootprintBytes = int64(n) * int64(vecLen) * 8
	row.OverSubscription = float64(row.FootprintBytes) / float64(cfg.RAMBytes)

	// Standard version under simulated paging: the paper's baseline, the
	// one arm that is not a configuration we ship, hence built by hand.
	{
		var clock iosim.Clock
		prov, err := vm.NewPagedProvider(n, vecLen, cfg.RAMBytes, dev, &clock, vm.DefaultReadahead)
		if err != nil {
			return row, err
		}
		e, err := plf.New(d.Tree.Clone(), d.Patterns, d.Model, prov)
		if err != nil {
			return row, err
		}
		lnl, compute, err := fullTraversalWorkload(e, figure5Traversals)
		if err != nil {
			return row, err
		}
		row.LnLStandard = lnl
		row.StandardIO = clock.Elapsed()
		row.StandardCompute = compute
		row.MajorFaults = prov.Memory().Stats().MajorFaults
	}

	// Out-of-core runs (the paper plots LRU and Random), confined to the
	// smaller OOC budget like the paper's -L flag. A width whose vectors
	// all fit that budget runs in RAM, as it would under oocraxml -L.
	runOOC := func(strategy, kernel string) (io, compute time.Duration, misses int64, lnl float64, err error) {
		var clock iosim.Clock
		r, err := w.run(arm{
			Bytes: cfg.oocBytes(), Strategy: strategy, Seed: cfg.Seed + 8, Kernel: kernel,
			Stack: ooc.StackSpec{Base: ooc.NewSimStore(w.memStore(), dev, &clock)},
		}, func(r *analysis.Run) (err error) {
			lnl, compute, err = fullTraversalWorkload(r.Engine, figure5Traversals)
			return err
		})
		if err == nil && r.Manager != nil {
			misses = r.Manager.Stats().Misses
		}
		return clock.Elapsed(), compute, misses, lnl, err
	}
	var l1, l2, l3 float64
	if row.OOCLRUIO, row.OOCLRUCompute, row.OOCLRUMisses, l1, err = runOOC("LRU", ""); err != nil {
		return row, err
	}
	if row.OOCRandIO, row.OOCRandCompute, row.OOCRandMisses, l2, err = runOOC("RAND", ""); err != nil {
		return row, err
	}
	if row.OOCFullIO, row.OOCFullCompute, _, l3, err = runOOC("LRU", plf.KernelGeneric); err != nil {
		return row, err
	}
	row.LnLOOC = l1
	if l1 != row.LnLStandard || l2 != row.LnLStandard || l3 != row.LnLStandard {
		return row, fmt.Errorf("correctness violation: standard %v, ooc lru %v, ooc rand %v, ooc full-width %v",
			row.LnLStandard, l1, l2, l3)
	}
	return row, nil
}

// WriteFigure5Table renders the Figure 5 series as text.
func WriteFigure5Table(w io.Writer, rows []Figure5Row, cfg Figure5Config) {
	cfg.fill()
	fmt.Fprintf(w, "Figure 5: %d full traversals, %d taxa, machine RAM %d MiB, OOC limit %d MiB, device %s\n",
		figure5Traversals, cfg.Taxa, cfg.RAMBytes>>20, cfg.oocBytes()>>20, figure5Device.Name)
	fmt.Fprintf(w, "%8s %12s %8s %14s %14s %14s %14s %12s %10s\n",
		"sites", "footprint", "over", "standard", "ooc-lru", "ooc-rand", "ooc-lru-full", "pagefaults", "speedup")
	for _, r := range rows {
		speedup := float64(r.StandardTotal()) / float64(r.OOCLRUTotal())
		fmt.Fprintf(w, "%8d %11.1fM %7.2fx %14v %14v %14v %14v %12d %9.2fx\n",
			r.Sites, float64(r.FootprintBytes)/(1<<20), r.OverSubscription,
			r.StandardTotal().Round(time.Millisecond),
			r.OOCLRUTotal().Round(time.Millisecond),
			r.OOCRandTotal().Round(time.Millisecond),
			r.OOCFullTotal().Round(time.Millisecond),
			r.MajorFaults, speedup)
	}
	fmt.Fprintln(w, "ooc-lru-full: LRU with full-width records (-kernel generic), the paper's design; the other ooc columns store class-major prefixes")
}
