package experiments

import (
	"fmt"
	"io"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// Recovery ablation — the integrity tentpole's acceptance experiment.
// The same full-traversal workload runs twice per manager flavour: once
// over a clean store and once over a FaultStore injecting transient
// read EIO, torn writes and bit flips underneath the ChecksumStore. The
// harness enforces the bar the fault-tolerance layer promises: the
// faulted run must finish with the bit-identical final log-likelihood
// of the clean run — an unreadable or corrupt vector is converted into
// extra newviews (the LvD recompute-vs-store tradeoff turned into a
// repair mechanism), never into a different answer or a failed run.

// RecoveryConfig describes the clean-versus-faulted experiment.
type RecoveryConfig struct {
	// Taxa and Sites set the simulated dataset dimensions.
	Taxa, Sites int
	// Seed fixes the dataset (and, offset, the fault sequence).
	Seed int64
	// Traversals is the number of full traversals.
	Traversals int
	// Faults is the injection plan for the faulted runs.
	Faults ooc.FaultConfig
}

func (c *RecoveryConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 48
	}
	if c.Sites == 0 {
		c.Sites = 256
	}
	if c.Traversals == 0 {
		c.Traversals = 3
	}
	if c.Faults == (ooc.FaultConfig{}) {
		c.Faults = ooc.FaultConfig{
			Seed:     c.Seed + 99,
			PReadErr: 0.05, MaxReadErrs: 6,
			PTornWrite: 0.05, MaxTornWrites: 4,
			// Bit flips only fire on reads that actually reach the store;
			// async scheduling jitters the die sequence, so the probability
			// is set high enough that every interleaving draws a flip.
			PBitFlip: 0.25, MaxBitFlips: 4,
		}
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
	// CorruptReads and DroppedWritebacks are the faulted run's pipeline
	// integrity counters.
	CorruptReads, DroppedWritebacks int64
	// Recoveries is how many unreadable or corrupt vectors the engine
	// recomputed.
	Recoveries int64
	// ExtraNewviews is the recompute overhead: faulted minus clean
	// newview count.
	ExtraNewviews int64
}

// runRecoveryWorkload executes the edge-sweep workload once over
// Manager → ChecksumStore → [FaultStore →] MemStore and returns the
// closed run for its counters.
func runRecoveryWorkload(cfg RecoveryConfig, w *workload, async bool, faults *ooc.FaultConfig) (lnl float64, r *analysis.Run, err error) {
	r, err = w.run(arm{
		Fraction: pagingFraction, Async: async,
		Stack: ooc.StackSpec{Base: w.memStore(), Fault: faults},
	}, func(r *analysis.Run) (err error) {
		// Both flavours stage the plan's next step, as the pipelined one
		// does by default.
		r.Engine.EnablePrefetch(true)
		lnl, err = edgeSweepWorkload(r.Engine, cfg.Traversals)
		return err
	})
	return lnl, r, err
}

// RunRecoveryAblation runs the workload clean and faulted for both the
// synchronous and the asynchronous manager, failing if any faulted run
// does not reproduce its clean run's log-likelihood bit for bit.
func RunRecoveryAblation(cfg RecoveryConfig) ([]RecoveryRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return nil, err
	}
	var out []RecoveryRow
	for _, async := range []bool{false, true} {
		cleanLnL, clean, err := runRecoveryWorkload(cfg, w, async, nil)
		if err != nil {
			return nil, fmt.Errorf("clean async=%v: %w", async, err)
		}
		lnl, faulted, err := runRecoveryWorkload(cfg, w, async, &cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("faulted async=%v: %w", async, err)
		}
		if cleanLnL != lnl {
			return nil, fmt.Errorf("async=%v: recovery changed the answer: clean lnL %v, faulted %v",
				async, cleanLnL, lnl)
		}
		pipe := faulted.Manager.PipelineStats()
		out = append(out, RecoveryRow{
			Async:             async,
			LnL:               lnl,
			Faults:            faulted.Stack.Fault.Stats(),
			CorruptReads:      pipe.CorruptReads,
			DroppedWritebacks: pipe.DroppedWritebacks,
			Recoveries:        faulted.Engine.Stats.Recoveries,
			ExtraNewviews:     faulted.Engine.Stats.Newviews - clean.Engine.Stats.Newviews,
		})
	}
	return out, nil
}

// WriteRecoveryTable renders the ablation as text.
func WriteRecoveryTable(w io.Writer, rows []RecoveryRow, cfg RecoveryConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Recovery ablation: %d full traversals, %d taxa × %d sites, f=%.2f\n",
		cfg.Traversals, cfg.Taxa, cfg.Sites, pagingFraction)
	fmt.Fprintf(w, "%6s %5s %5s %5s %8s %8s %10s %8s %14s\n",
		"mode", "eio-r", "torn", "flips", "corrupt", "dropped", "recovered", "+nv", "lnL")
	for _, r := range rows {
		mode := "sync"
		if r.Async {
			mode = "async"
		}
		fmt.Fprintf(w, "%6s %5d %5d %5d %8d %8d %10d %8d %14.2f\n",
			mode, r.Faults.ReadErrs, r.Faults.TornWrites, r.Faults.BitFlips,
			r.CorruptReads, r.DroppedWritebacks, r.Recoveries, r.ExtraNewviews, r.LnL)
	}
}
