package experiments

import (
	"fmt"
	"io"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

// Recovery ablation — the integrity tentpole's acceptance experiment.
// The same full-traversal workload runs twice per manager flavour: once
// over a clean store and once over a FaultStore injecting transient
// EIO, torn writes and bit flips underneath the ChecksumStore. The
// harness enforces the bar the fault-tolerance layer promises: the
// faulted run must finish with the bit-identical final log-likelihood
// of the clean run — corruption is converted into retries and extra
// newviews (the LvD recompute-vs-store tradeoff turned into a repair
// mechanism), never into a different answer or a failed run.

// RecoveryConfig describes the clean-versus-faulted experiment.
type RecoveryConfig struct {
	// Taxa and Sites set the simulated dataset dimensions.
	Taxa, Sites int
	// Seed fixes the dataset (and, offset, the fault sequence).
	Seed int64
	// GammaAlpha sets rate heterogeneity.
	GammaAlpha float64
	// Traversals is the number of full traversals.
	Traversals int
	// Fraction is the memory fraction f (slots = f·n).
	Fraction float64
	// Faults is the injection plan for the faulted runs.
	Faults ooc.FaultConfig
	// Retries configures the manager's transient-error retry budget. It
	// must exceed the largest per-category fault cap so an injected EIO
	// burst can never outlast the retry loop (the caps make recovery
	// equivalence deterministic rather than merely probable).
	Retries int
	// Workers is the number of the async pipeline's fetch goroutines.
	Workers int
}

func (c *RecoveryConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 48
	}
	if c.Sites == 0 {
		c.Sites = 256
	}
	if c.GammaAlpha == 0 {
		c.GammaAlpha = 0.8
	}
	if c.Traversals == 0 {
		c.Traversals = 3
	}
	if c.Fraction == 0 {
		c.Fraction = 0.25
	}
	if c.Faults == (ooc.FaultConfig{}) {
		c.Faults = ooc.FaultConfig{
			Seed:     c.Seed + 99,
			PReadErr: 0.05, MaxReadErrs: 6,
			PWriteErr: 0.05, MaxWriteErrs: 6,
			PTornWrite: 0.05, MaxTornWrites: 4,
			// Bit flips only fire on reads that actually reach the store;
			// async scheduling jitters the die sequence, so the probability
			// is set high enough that every interleaving draws a flip.
			PBitFlip: 0.25, MaxBitFlips: 4,
		}
	}
	if c.Retries == 0 {
		c.Retries = 8
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
}

// RecoveryRow is one manager flavour of the ablation: the workload
// clean versus faulted.
type RecoveryRow struct {
	// Async reports which manager flavour the row describes.
	Async bool
	// LnL is the (identical) final log-likelihood of both runs.
	LnL float64
	// Faults is what the fault store actually injected.
	Faults ooc.FaultStats
	// Retries, CorruptReads and DroppedWritebacks are the faulted run's
	// pipeline integrity counters.
	Retries, CorruptReads, DroppedWritebacks int64
	// Detected is the checksum layer's failed-verification count.
	Detected int64
	// Recoveries is how many corrupt vectors the engine recomputed.
	Recoveries int64
	// ExtraNewviews is the recompute overhead: faulted minus clean
	// newview count.
	ExtraNewviews int64
}

// recoveryRun is one execution of the workload over a (possibly
// faulted) checksummed store.
type recoveryRun struct {
	lnl        float64
	newviews   int64
	recoveries int64
	pipe       ooc.PipelineStats
	detected   int64
	faults     ooc.FaultStats
}

// edgeSweepWorkload is the recovery ablation's access pattern: one full
// traversal, then per round a likelihood evaluation at every second
// edge. Unlike the pure full-traversal workload (where read skipping
// plus post-order locality means vectors are almost never read back),
// the edge hops constantly re-orient subtrees and fault stored vectors
// in with read intent — exactly the path where torn writes and bit
// flips must be detected and healed.
func edgeSweepWorkload(e *plf.Engine, rounds int) (float64, error) {
	if err := e.FullTraversal(e.T.Edges[0]); err != nil {
		return 0, err
	}
	var lnl float64
	for s := 0; s < rounds; s++ {
		for i := 0; i < len(e.T.Edges); i += 2 {
			l, err := e.LogLikelihoodAt(e.T.Edges[i])
			if err != nil {
				return 0, err
			}
			lnl = l
		}
	}
	return lnl, nil
}

// runRecoveryWorkload executes the edge-sweep workload once over
// Manager → ChecksumStore → [FaultStore →] MemStore.
func runRecoveryWorkload(cfg RecoveryConfig, d *sim.Dataset, async, faulted bool) (recoveryRun, error) {
	var r recoveryRun
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	n := d.Tree.NumInner()
	slots := ooc.SlotsForFraction(cfg.Fraction, n)
	spec := ooc.StackSpec{
		TieredConfig: ooc.TieredConfig{NumVectors: n, VectorLen: vecLen},
		Base:         ooc.NewMemStore(n, vecLen), Verify: true,
	}
	if faulted {
		spec.Fault = &cfg.Faults
	}
	st, err := ooc.OpenStack(spec)
	if err != nil {
		return r, err
	}
	defer st.Close()
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: st.Store,
		Async: async, IOWorkers: cfg.Workers,
		Retry: ooc.RetryPolicy{Max: cfg.Retries},
	})
	if err != nil {
		return r, err
	}
	e, err := plf.New(d.Tree.Clone(), d.Patterns, d.Model, mgr)
	if err != nil {
		return r, err
	}
	e.EnablePrefetch(true)
	e.SetPrefetchDepth(1)
	lnl, err := edgeSweepWorkload(e, cfg.Traversals)
	if err != nil {
		return r, err
	}
	if err := mgr.Close(); err != nil {
		return r, err
	}
	if err := st.Close(); err != nil {
		return r, err
	}
	r.lnl = lnl
	r.newviews = e.Stats.Newviews
	r.recoveries = e.Stats.Recoveries
	r.pipe = mgr.PipelineStats()
	r.detected = st.Checksum.CorruptReads()
	if st.Fault != nil {
		r.faults = st.Fault.Stats()
	}
	return r, nil
}

// RunRecoveryAblation runs the workload clean and faulted for both the
// synchronous and the asynchronous manager, failing if any faulted run
// does not reproduce its clean run's log-likelihood bit for bit.
func RunRecoveryAblation(cfg RecoveryConfig) ([]RecoveryRow, error) {
	cfg.fill()
	d, err := sim.NewDataset(sim.Config{
		Taxa: cfg.Taxa, Sites: cfg.Sites, GammaAlpha: cfg.GammaAlpha, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var out []RecoveryRow
	for _, async := range []bool{false, true} {
		clean, err := runRecoveryWorkload(cfg, d, async, false)
		if err != nil {
			return nil, fmt.Errorf("clean async=%v: %w", async, err)
		}
		faulted, err := runRecoveryWorkload(cfg, d, async, true)
		if err != nil {
			return nil, fmt.Errorf("faulted async=%v: %w", async, err)
		}
		if clean.lnl != faulted.lnl {
			return nil, fmt.Errorf("async=%v: recovery changed the answer: clean lnL %v, faulted %v",
				async, clean.lnl, faulted.lnl)
		}
		out = append(out, RecoveryRow{
			Async:   async,
			LnL:     faulted.lnl,
			Faults:  faulted.faults,
			Retries: faulted.pipe.Retries, CorruptReads: faulted.pipe.CorruptReads,
			DroppedWritebacks: faulted.pipe.DroppedWritebacks,
			Detected:          faulted.detected,
			Recoveries:        faulted.recoveries,
			ExtraNewviews:     faulted.newviews - clean.newviews,
		})
	}
	return out, nil
}

// WriteRecoveryTable renders the ablation as text.
func WriteRecoveryTable(w io.Writer, rows []RecoveryRow, cfg RecoveryConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Recovery ablation: %d full traversals, %d taxa × %d sites, f=%.2f, retries %d\n",
		cfg.Traversals, cfg.Taxa, cfg.Sites, cfg.Fraction, cfg.Retries)
	fmt.Fprintf(w, "%6s %5s %5s %5s %5s %8s %8s %8s %10s %8s %14s\n",
		"mode", "eio-r", "eio-w", "torn", "flips", "retries", "corrupt", "dropped", "recovered", "+nv", "lnL")
	for _, r := range rows {
		mode := "sync"
		if r.Async {
			mode = "async"
		}
		fmt.Fprintf(w, "%6s %5d %5d %5d %5d %8d %8d %8d %10d %8d %14.2f\n",
			mode, r.Faults.ReadErrs, r.Faults.WriteErrs, r.Faults.TornWrites, r.Faults.BitFlips,
			r.Retries, r.CorruptReads, r.DroppedWritebacks, r.Recoveries, r.ExtraNewviews, r.LnL)
	}
}
