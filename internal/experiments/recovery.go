package experiments

import (
	"fmt"
	"io"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// Recovery ablation — the integrity tentpole's acceptance experiment.
// The same full-traversal workload runs twice: once over a clean store
// and once over a FaultStore injecting transient read EIO, torn writes
// and bit flips underneath the manager, which checks every vector it
// reads. The harness enforces the bar the fault-tolerance layer promises: the
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
			// Bit flips only fire on reads that actually reach the store,
			// and the arm holds f·n slots and reads little, so the
			// probability is set high enough that each arm draws a flip.
			PBitFlip: 0.25, MaxBitFlips: 4,
		}
	}
}

// RecoveryRow is the ablation's result: the workload clean versus
// faulted.
type RecoveryRow struct {
	// LnL is the (identical) final log-likelihood of both runs.
	LnL float64
	// Faults is what the fault store actually injected.
	Faults ooc.FaultStats
	// CorruptReads is the faulted run's count of reads that failed the
	// manager's check.
	CorruptReads int64
	// Recoveries is how many unreadable or corrupt vectors the engine
	// recomputed.
	Recoveries int64
	// ExtraNewviews is the recompute overhead: faulted minus clean
	// newview count.
	ExtraNewviews int64
}

// runRecoveryWorkload executes the edge-sweep workload once over
// Manager → [FaultStore →] MemStore and returns the closed run for its
// counters.
func runRecoveryWorkload(cfg RecoveryConfig, w *workload, faults *ooc.FaultConfig) (lnl float64, r *analysis.Run, err error) {
	r, err = w.run(arm{Fraction: pagingFraction, Stack: ooc.StackSpec{Base: w.memStore(), Fault: faults}}, func(r *analysis.Run) (err error) {
		lnl, err = edgeSweepWorkload(r.Engine, cfg.Traversals)
		return err
	})
	return lnl, r, err
}

// RunRecoveryAblation runs the workload clean and faulted, failing if
// the faulted run does not reproduce the clean run's log-likelihood bit
// for bit.
func RunRecoveryAblation(cfg RecoveryConfig) (RecoveryRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return RecoveryRow{}, err
	}
	cleanLnL, clean, err := runRecoveryWorkload(cfg, w, nil)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("clean: %w", err)
	}
	lnl, faulted, err := runRecoveryWorkload(cfg, w, &cfg.Faults)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("faulted: %w", err)
	}
	if cleanLnL != lnl {
		return RecoveryRow{}, fmt.Errorf("recovery changed the answer: clean lnL %v, faulted %v", cleanLnL, lnl)
	}
	return RecoveryRow{
		LnL:           lnl,
		Faults:        faulted.Stack.Fault.Stats(),
		CorruptReads:  faulted.Manager.PipelineStats().CorruptReads,
		Recoveries:    faulted.Engine.Stats.Recoveries,
		ExtraNewviews: faulted.Engine.Stats.Newviews - clean.Engine.Stats.Newviews,
	}, nil
}

// WriteRecoveryTable renders the ablation as text.
func WriteRecoveryTable(w io.Writer, r RecoveryRow, cfg RecoveryConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Recovery ablation: %d full traversals, %d taxa × %d sites, f=%.2f\n",
		cfg.Traversals, cfg.Taxa, cfg.Sites, pagingFraction)
	fmt.Fprintf(w, "%5s %5s %5s %8s %10s %8s %14s\n",
		"eio-r", "torn", "flips", "corrupt", "recovered", "+nv", "lnL")
	fmt.Fprintf(w, "%5d %5d %5d %8d %10d %8d %14.2f\n",
		r.Faults.ReadErrs, r.Faults.TornWrites, r.Faults.BitFlips,
		r.CorruptReads, r.Recoveries, r.ExtraNewviews, r.LnL)
}
