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
// its modelled transfer time, once with the pipeline every product run
// uses and once with the synchronous manager, both staging the plan's
// next step. The pipelined arm pays for its spare write buffers out of
// its quota, and the synchronous arm gets the resident slots that leaves.
// The harness enforces the correctness bar — bit-identical
// log-likelihoods and identical manager and prefetch counters — and
// reports the compute-thread stall time both ways, which is the quantity
// the pipeline exists to shrink.

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
		// the sync run, small enough that the pair stays quick.
		c.Device = iosim.Device{Name: "nvme", Latency: 150 * time.Microsecond, Bandwidth: 2e9}
	}
	if c.Realtime == 0 {
		c.Realtime = 1
	}
}

// AsyncAblationRow is the ablation's result: the same workload
// synchronous versus pipelined.
type AsyncAblationRow struct {
	// Slots is the resident-slot count of both runs: what the quota buys
	// once the pipeline's spare buffers are paid for.
	Slots int
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

// asyncAblationRun executes the full-traversal workload once under a,
// with prefetch on, and returns the closed run for its counters; wall
// runs to the end of Close, when the pipeline has drained.
func asyncAblationRun(cfg AsyncAblationConfig, w *workload, a arm) (lnl float64, wall time.Duration, r *analysis.Run, err error) {
	var clock iosim.Clock
	store := ooc.NewSimStore(w.memStore(), cfg.Device, &clock)
	store.Realtime = cfg.Realtime
	a.Stack = ooc.StackSpec{Base: store}
	var start time.Time
	r, err = w.run(a, func(r *analysis.Run) (err error) {
		r.Engine.EnablePrefetch(true)
		start = time.Now()
		lnl, _, err = fullTraversalWorkload(r.Engine, cfg.Traversals)
		return err
	})
	return lnl, time.Since(start), r, err
}

// RunAsyncAblation runs the workload pipelined, then synchronously over
// the same resident slots, and fails if the pair violates the
// bit-identical-likelihood / identical-counter correctness bar.
func RunAsyncAblation(cfg AsyncAblationConfig) (AsyncAblationRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return AsyncAblationRow{}, err
	}
	aLnL, aWall, a, err := asyncAblationRun(cfg, w, arm{Fraction: pagingFraction, Async: true})
	if err != nil {
		return AsyncAblationRow{}, fmt.Errorf("async: %w", err)
	}
	slots := a.Manager.Slots()
	sLnL, sWall, s, err := asyncAblationRun(cfg, w, arm{Bytes: int64(slots) * a.Sizing.VecBytes})
	if err != nil {
		return AsyncAblationRow{}, fmt.Errorf("sync: %w", err)
	}
	if sLnL != aLnL {
		return AsyncAblationRow{}, fmt.Errorf("likelihood diverged: sync %v, async %v", sLnL, aLnL)
	}
	stats, pf := a.Manager.Stats(), a.Manager.PrefetchStats()
	if ss := s.Manager.Stats(); ss != stats {
		return AsyncAblationRow{}, fmt.Errorf("manager counters diverged: sync %+v, async %+v", ss, stats)
	}
	if spf := s.Manager.PrefetchStats(); spf != pf {
		return AsyncAblationRow{}, fmt.Errorf("prefetch counters diverged: sync %+v, async %+v", spf, pf)
	}
	return AsyncAblationRow{
		Slots:     slots,
		SyncStall: s.Manager.PipelineStats().StallTime, AsyncStall: a.Manager.PipelineStats().StallTime,
		SyncWall: sWall, AsyncWall: aWall,
		Misses: stats.Misses, Reads: stats.Reads,
		Prefetch: pf,
		Pipeline: a.Manager.PipelineStats(),
		LnL:      aLnL,
	}, nil
}

// WriteAsyncAblationTable renders the ablation as text.
func WriteAsyncAblationTable(w io.Writer, r AsyncAblationRow, cfg AsyncAblationConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Async ablation: %d full traversals, %d taxa × %d sites, f=%.2f, device %s\n",
		cfg.Traversals, cfg.Taxa, cfg.Sites, pagingFraction, cfg.Device.Name)
	fmt.Fprintf(w, "%6s %12s %12s %8s %12s %12s %8s %8s %8s %8s %14s\n",
		"slots", "sync-stall", "async-stall", "hidden", "sync-wall", "async-wall", "misses", "pf-reads", "pf-hits", "joined", "lnL")
	fmt.Fprintf(w, "%6d %12v %12v %7.1f%% %12v %12v %8d %8d %8d %8d %14.2f\n",
		r.Slots,
		r.SyncStall.Round(time.Millisecond), r.AsyncStall.Round(time.Millisecond),
		100*r.StallReduction(),
		r.SyncWall.Round(time.Millisecond), r.AsyncWall.Round(time.Millisecond),
		r.Misses, r.Prefetch.Reads, r.Prefetch.Hits, r.Pipeline.JoinedFetches, r.LnL)
}
