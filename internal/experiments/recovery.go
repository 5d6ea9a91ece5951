package experiments

import (
	"fmt"
	"io"

	"oocphylo/internal/analysis"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// Recovery ablation — the integrity tentpole's acceptance experiment,
// and the timeline figure. The same edge-sweep workload runs twice:
// once bare over a clean store and once over a FaultStore injecting
// transient read EIO, torn writes and bit flips underneath the manager,
// which checks every vector it reads. The faulted arm runs fully
// instrumented under one run-long root span, and its spans can be
// exported as Chrome trace_event JSON: the compute lane and the
// writer's lane side by side show demand fault-ins, background
// write-backs and the recovery markers followed by their recompute
// storms. The harness enforces the bar the fault-tolerance layer
// promises: the faulted run must finish with the bit-identical final
// log-likelihood of the clean run — an unreadable or corrupt vector is
// converted into extra newviews (the LvD recompute-vs-store tradeoff
// turned into a repair mechanism), never into a different answer or a
// failed run.

// RecoveryConfig describes the clean-versus-faulted experiment.
type RecoveryConfig struct {
	// Taxa and Sites set the simulated dataset dimensions.
	Taxa, Sites int
	// Seed fixes the dataset and, through faultPlan, the fault sequence.
	Seed int64
	// Rounds is the number of edge-sweep rounds after the initial full
	// traversal.
	Rounds int
}

func (c *RecoveryConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 48
	}
	if c.Sites == 0 {
		c.Sites = 256
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
}

// faultPlan is the faulted arm's injection plan. Read EIO and bit flips
// only fire on reads that reach the store, and the arm holds f·n slots
// and reads little, so their probabilities are set high enough that
// the default configuration, the figure's seed and each seed of
// TestFaultRecoveryEquivalence draw every fault kind.
func faultPlan(seed int64) ooc.FaultConfig {
	return ooc.FaultConfig{
		Seed:     seed*131 + 99,
		PReadErr: 0.20, MaxReadErrs: 6,
		PTornWrite: 0.10, MaxTornWrites: 4,
		PBitFlip: 0.25, MaxBitFlips: 4,
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
	// Spans is the number of spans the faulted run's trace holds;
	// Dropped how many the collector overwrote at its per-trace cap.
	Spans, Dropped int64
	// Snapshot is the faulted run's registry at its end.
	Snapshot *obs.Snapshot
}

// sweep runs the edge-sweep workload once on a, under root (nil runs
// untraced), and returns the closed run for its counters.
func (c RecoveryConfig) sweep(w *workload, a arm, root *obs.Span) (lnl float64, r *analysis.Run, err error) {
	r, err = w.run(a, func(r *analysis.Run) (err error) {
		r.SetSpan(root)
		lnl, err = edgeSweepWorkload(r.Engine, c.Rounds)
		return err
	})
	return lnl, r, err
}

// RunRecoveryAblation runs the workload clean and faulted, failing if
// the faulted run does not reproduce the clean run's log-likelihood bit
// for bit. The faulted run's Chrome trace goes to traceW unless it is
// nil.
func RunRecoveryAblation(cfg RecoveryConfig, traceW io.Writer) (RecoveryRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return RecoveryRow{}, err
	}
	cleanLnL, clean, err := cfg.sweep(w, arm{Fraction: pagingFraction, Stack: ooc.StackSpec{Base: w.memStore()}}, nil)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("clean: %w", err)
	}
	plan := faultPlan(cfg.Seed)
	reg := obs.NewRegistry()
	reg.SetInfo("run.workload", fmt.Sprintf("edge sweep, %d taxa, %d rounds, faulted", cfg.Taxa, cfg.Rounds))
	col := obs.NewSpanCollector(4)
	root := col.StartTrace("recovery")
	lnl, faulted, err := cfg.sweep(w, arm{
		Fraction: pagingFraction,
		Stack:    ooc.StackSpec{Base: w.memStore(), Fault: &plan},
		Registry: reg,
	}, root)
	// Ended after Close, whose drained write-backs land under it too.
	root.End()
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("faulted: %w", err)
	}
	if cleanLnL != lnl {
		return RecoveryRow{}, fmt.Errorf("recovery changed the answer: clean lnL %v, faulted %v", cleanLnL, lnl)
	}
	if traceW != nil {
		if err := obs.WriteChromeTrace(traceW, col); err != nil {
			return RecoveryRow{}, err
		}
	}
	row := RecoveryRow{
		LnL:           lnl,
		Faults:        faulted.Stack.Fault.Stats(),
		CorruptReads:  faulted.Manager.PipelineStats().CorruptReads,
		Recoveries:    faulted.Engine.Stats.Recoveries,
		ExtraNewviews: faulted.Engine.Stats.Newviews - clean.Engine.Stats.Newviews,
		Dropped:       col.Dropped(),
		Snapshot:      reg.Snapshot(),
	}
	row.Spans = col.Total() - row.Dropped
	return row, nil
}

// WriteRecoveryTable renders the ablation as text, followed by the
// faulted run's trace size and registry report.
func WriteRecoveryTable(w io.Writer, r RecoveryRow, cfg RecoveryConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Recovery ablation: edge sweep, %d rounds, %d taxa × %d sites, f=%.2f\n",
		cfg.Rounds, cfg.Taxa, cfg.Sites, pagingFraction)
	fmt.Fprintf(w, "%5s %5s %5s %8s %10s %8s %14s\n",
		"eio-r", "torn", "flips", "corrupt", "recovered", "+nv", "lnL")
	fmt.Fprintf(w, "%5d %5d %5d %8d %10d %8d %14.2f\n",
		r.Faults.ReadErrs, r.Faults.TornWrites, r.Faults.BitFlips,
		r.CorruptReads, r.Recoveries, r.ExtraNewviews, r.LnL)
	fmt.Fprintf(w, "faulted run's trace: %d spans held (dropped %d)\n", r.Spans, r.Dropped)
	obs.WriteReport(w, r.Snapshot)
}
