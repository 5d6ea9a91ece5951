package experiments

import (
	"fmt"
	"io"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// Async ablation — the paper's §5 prefetch-thread future work measured.
// The same Figure-5-style workload (k full tree traversals, the access
// pattern with the least locality) runs over a SimStore that sleeps for
// its modelled transfer time, once with the synchronous manager and
// once with the asynchronous pipeline, at several prefetch depths. The
// harness enforces the tentpole's correctness bar on every pair — bit
// identical log-likelihoods and identical miss counts — and reports the
// compute-thread stall time both ways, which is the quantity the
// pipeline exists to shrink.

// AsyncAblationConfig describes the sync-versus-async experiment.
type AsyncAblationConfig struct {
	// Taxa and Sites set the simulated dataset dimensions.
	Taxa, Sites int
	// Seed fixes the dataset.
	Seed int64
	// Traversals is the number of full traversals (Figure 5 uses 5).
	Traversals int
	// Device models the backing store; Realtime scales its modelled
	// transfer time into real sleeping so overlap is observable.
	Device   iosim.Device
	Realtime float64
	// Depths are the prefetch depths to sweep (default {1, 2, 4}).
	Depths []int
}

func (c *AsyncAblationConfig) fill() {
	// The defaults are sized so per-step compute is comparable to one
	// vector transfer — the regime where pipelining pays (tiny vectors
	// make every workload latency-bound and nothing can hide the I/O).
	if c.Taxa == 0 {
		c.Taxa = 128
	}
	if c.Sites == 0 {
		c.Sites = 1024
	}
	if c.Traversals == 0 {
		c.Traversals = 5
	}
	if c.Device.Name == "" {
		// A fast-SSD-like device: enough latency for stalls to dominate
		// the sync run, small enough that the sweep stays quick.
		c.Device = iosim.Device{Name: "nvme", Latency: 150 * time.Microsecond, Bandwidth: 2e9}
	}
	if c.Realtime == 0 {
		c.Realtime = 1
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 2, 4}
	}
}

// AsyncAblationRow is one prefetch depth of the ablation: the same
// workload synchronous versus pipelined.
type AsyncAblationRow struct {
	// Depth is the engine's prefetch depth for both runs.
	Depth int
	// SyncStall and AsyncStall are the compute-thread I/O stall times.
	SyncStall, AsyncStall time.Duration
	// SyncWall and AsyncWall are the measured wall-clock times.
	SyncWall, AsyncWall time.Duration
	// Misses is the (identical) demand-miss count of both runs.
	Misses int64
	// Reads is the (identical) demand store-read count of both runs.
	Reads int64
	// Prefetch is the (identical) prefetch ledger of both runs.
	Prefetch ooc.PrefetchStats
	// Pipeline is the async run's pipeline ledger.
	Pipeline ooc.PipelineStats
	// LnL is the (identical) final log-likelihood.
	LnL float64
}

// StallReduction returns 1 − async/sync stall: the fraction of
// compute-thread I/O waiting the pipeline hid.
func (r AsyncAblationRow) StallReduction() float64 {
	if r.SyncStall <= 0 {
		return 0
	}
	return 1 - float64(r.AsyncStall)/float64(r.SyncStall)
}

// asyncAblationRun executes the full-traversal workload once and
// returns the closed run for its counters; wall runs to the end of
// Close, when the pipeline has drained.
func asyncAblationRun(cfg AsyncAblationConfig, w *workload, depth int, async bool) (lnl float64, wall time.Duration, r *analysis.Run, err error) {
	var clock iosim.Clock
	store := ooc.NewSimStore(w.memStore(), cfg.Device, &clock)
	store.Realtime = cfg.Realtime
	var start time.Time
	r, err = w.run(arm{
		Fraction: pagingFraction, Prefetch: true, PrefetchDepth: depth,
		Async: async, IOWorkers: ioWorkers,
		Stack: ooc.StackSpec{Base: store},
	}, func(r *analysis.Run) (err error) {
		start = time.Now()
		lnl, _, err = fullTraversalWorkload(r.Engine, cfg.Traversals)
		return err
	})
	return lnl, time.Since(start), r, err
}

// RunAsyncAblation sweeps the configured prefetch depths, running each
// workload synchronously and with the async pipeline, and fails if any
// pair violates the bit-identical-likelihood / identical-miss-count
// correctness bar.
func RunAsyncAblation(cfg AsyncAblationConfig) ([]AsyncAblationRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return nil, err
	}
	var out []AsyncAblationRow
	for _, depth := range cfg.Depths {
		sLnL, sWall, s, err := asyncAblationRun(cfg, w, depth, false)
		if err != nil {
			return nil, fmt.Errorf("sync depth %d: %w", depth, err)
		}
		aLnL, aWall, a, err := asyncAblationRun(cfg, w, depth, true)
		if err != nil {
			return nil, fmt.Errorf("async depth %d: %w", depth, err)
		}
		if sLnL != aLnL {
			return nil, fmt.Errorf("depth %d: likelihood diverged: sync %v, async %v", depth, sLnL, aLnL)
		}
		stats, pf := a.Manager.Stats(), a.Manager.PrefetchStats()
		if ss := s.Manager.Stats(); ss != stats {
			return nil, fmt.Errorf("depth %d: manager counters diverged: sync %+v, async %+v", depth, ss, stats)
		}
		if spf := s.Manager.PrefetchStats(); spf != pf {
			return nil, fmt.Errorf("depth %d: prefetch counters diverged: sync %+v, async %+v", depth, spf, pf)
		}
		out = append(out, AsyncAblationRow{
			Depth:     depth,
			SyncStall: s.Manager.PipelineStats().StallTime, AsyncStall: a.Manager.PipelineStats().StallTime,
			SyncWall: sWall, AsyncWall: aWall,
			Misses: stats.Misses, Reads: stats.Reads,
			Prefetch: pf,
			Pipeline: a.Manager.PipelineStats(),
			LnL:      aLnL,
		})
	}
	return out, nil
}

// WriteAsyncAblationTable renders the ablation as text.
func WriteAsyncAblationTable(w io.Writer, rows []AsyncAblationRow, cfg AsyncAblationConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Async ablation: %d full traversals, %d taxa × %d sites, f=%.2f, device %s, %d workers\n",
		cfg.Traversals, cfg.Taxa, cfg.Sites, pagingFraction, cfg.Device.Name, ioWorkers)
	fmt.Fprintf(w, "%6s %12s %12s %8s %12s %12s %8s %8s %8s %8s %14s\n",
		"depth", "sync-stall", "async-stall", "hidden", "sync-wall", "async-wall", "misses", "pf-reads", "pf-hits", "joined", "lnL")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12v %12v %7.1f%% %12v %12v %8d %8d %8d %8d %14.2f\n",
			r.Depth,
			r.SyncStall.Round(time.Millisecond), r.AsyncStall.Round(time.Millisecond),
			100*r.StallReduction(),
			r.SyncWall.Round(time.Millisecond), r.AsyncWall.Round(time.Millisecond),
			r.Misses, r.Prefetch.Reads, r.Prefetch.Hits, r.Pipeline.JoinedFetches, r.LnL)
	}
}
