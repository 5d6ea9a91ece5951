package experiments

import (
	"fmt"
	"io"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// Timeline figure — the observability layer's acceptance experiment. A
// real out-of-core run (async pipeline, checksummed store, optional
// fault injection) executes fully instrumented under one run-long root
// span, and the collected spans are exported as Chrome trace_event
// JSON: the compute lane and the I/O worker lanes side by side show
// prefetch overlap, join-wait residue, background write-backs and (when
// faults are on) the recovery markers followed by their recompute
// storms.

// TimelineConfig describes the traced run.
type TimelineConfig struct {
	// Taxa and Sites set the simulated dataset dimensions; the default
	// 128 taxa matches the paper's mid-size experiments.
	Taxa, Sites int
	// Seed fixes the dataset and fault sequence.
	Seed int64
	// Rounds is the number of edge-sweep rounds after the initial full
	// traversal (the vector-lifecycle-rich workload from the recovery
	// ablation).
	Rounds int
	// WithFaults injects transient I/O faults and bit flips so the
	// timeline shows recovery events, not just steady-state paging.
	WithFaults bool
}

func (c *TimelineConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 128
	}
	if c.Sites == 0 {
		c.Sites = 256
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
}

// TimelineResult summarises the traced run.
type TimelineResult struct {
	// LnL is the final log-likelihood (bit-identical to an untraced run
	// — instrumentation observes, never steers).
	LnL float64
	// Spans is the number of spans the trace holds; Dropped how many
	// the collector overwrote at its per-trace cap.
	Spans, Dropped int64
	// Recoveries is the number of corrupt vectors healed during the run
	// (only nonzero with WithFaults).
	Recoveries int64
	// Snapshot is the full registry state at the end of the run.
	Snapshot *obs.Snapshot
}

// RunTimeline executes the instrumented workload and writes the Chrome
// trace JSON to traceW.
func RunTimeline(cfg TimelineConfig, traceW io.Writer) (TimelineResult, error) {
	var res TimelineResult
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return res, err
	}
	stack := ooc.StackSpec{Base: w.memStore()}
	if cfg.WithFaults {
		stack.Fault = &ooc.FaultConfig{
			Seed:     cfg.Seed + 99,
			PReadErr: 0.02, MaxReadErrs: 4,
			PBitFlip: 0.10, MaxBitFlips: 3,
		}
	}
	reg := obs.NewRegistry()
	col := obs.NewSpanCollector(4)
	root := col.StartTrace("timeline")
	reg.SetInfo("run.workload", fmt.Sprintf("edge sweep, %d taxa, %d rounds", cfg.Taxa, cfg.Rounds))
	r, err := w.run(arm{
		Fraction: pagingFraction, Async: true,
		Stack: stack, Registry: reg,
	}, func(r *analysis.Run) (err error) {
		r.SetSpan(root)
		res.LnL, err = edgeSweepWorkload(r.Engine, cfg.Rounds)
		return err
	})
	// Ended after Close, whose drained write-backs land under it too.
	root.End()
	if err != nil {
		return res, err
	}
	if traceW != nil {
		if err := obs.WriteChromeTrace(traceW, col); err != nil {
			return res, err
		}
	}
	res.Dropped = col.Dropped()
	res.Spans = col.Total() - res.Dropped
	res.Recoveries = r.Engine.Stats.Recoveries
	res.Snapshot = reg.Snapshot()
	return res, nil
}

// ObsOverheadResult reports the instrumented-versus-bare wall time of
// the same workload — the acceptance bound on the obs layer's cost.
type ObsOverheadResult struct {
	// OffSeconds and OnSeconds are the best-of-reps wall times without
	// and with full instrumentation (the registry); SpansSeconds
	// additionally runs the whole workload under a request span, so
	// every fault-in, eviction and kernel pass is span-recorded.
	OffSeconds, OnSeconds float64
	SpansSeconds          float64
	// OverheadPct is (on-off)/off in percent; negative values (noise)
	// mean the instrumented run happened to be faster. SpanOverheadPct
	// is the same ratio for the span-traced arm.
	OverheadPct     float64
	SpanOverheadPct float64
	// LnLOff, LnLOn and LnLSpans must be bit-identical: observation
	// never steers.
	LnLOff, LnLOn, LnLSpans float64
	// SpanCount is the number of spans the traced arm recorded (> 0
	// proves the arm actually traced).
	SpanCount int64
}

// Instrumentation arms of the overhead experiment.
const (
	obsArmOff   = iota // no registry, nil spans
	obsArmOn           // registry
	obsArmSpans        // registry + a root span over the run
)

// RunObsOverhead measures the end-to-end cost of instrumentation on a
// full-traversal workload: reps repetitions each way, best wall time
// kept (minimum is the standard noise-robust choice for micro-scale
// wall clocks). Three arms: bare, metrics, and metrics with the whole
// workload under a root span.
func RunObsOverhead(taxa, sites, traversals, reps int, seed int64) (ObsOverheadResult, error) {
	var res ObsOverheadResult
	if taxa == 0 {
		taxa = 64
	}
	if sites == 0 {
		sites = 256
	}
	if traversals == 0 {
		traversals = 3
	}
	if reps == 0 {
		reps = 3
	}
	w, err := newWorkload(sim.Config{Taxa: taxa, Sites: sites, Seed: seed}, false)
	if err != nil {
		return res, err
	}
	run := func(obsArm int) (lnl float64, wall time.Duration, err error) {
		a := arm{
			Fraction: pagingFraction, Async: true,
			Stack: ooc.StackSpec{Base: w.memStore()},
		}
		if obsArm >= obsArmOn {
			a.Registry = obs.NewRegistry()
		}
		_, err = w.run(a, func(r *analysis.Run) (err error) {
			if obsArm == obsArmSpans {
				col := obs.NewSpanCollector(8)
				root := col.StartTrace("workload")
				r.SetSpan(root)
				defer func() {
					root.End()
					res.SpanCount = col.Total()
				}()
			}
			lnl, wall, err = fullTraversalWorkload(r.Engine, traversals)
			return err
		})
		return lnl, wall, err
	}
	best := func(obsArm int) (float64, float64, error) {
		bestWall := time.Duration(0)
		var lnl float64
		for i := 0; i < reps; i++ {
			l, wall, err := run(obsArm)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || wall < bestWall {
				bestWall = wall
			}
			lnl = l
		}
		return lnl, bestWall.Seconds(), nil
	}
	res.LnLOff, res.OffSeconds, err = best(obsArmOff)
	if err != nil {
		return res, err
	}
	res.LnLOn, res.OnSeconds, err = best(obsArmOn)
	if err != nil {
		return res, err
	}
	res.LnLSpans, res.SpansSeconds, err = best(obsArmSpans)
	if err != nil {
		return res, err
	}
	if res.LnLOff != res.LnLOn {
		return res, fmt.Errorf("experiments: instrumentation changed the answer: off %v, on %v",
			res.LnLOff, res.LnLOn)
	}
	if res.LnLOff != res.LnLSpans {
		return res, fmt.Errorf("experiments: span tracing changed the answer: off %v, spans %v",
			res.LnLOff, res.LnLSpans)
	}
	if res.OffSeconds > 0 {
		res.OverheadPct = (res.OnSeconds - res.OffSeconds) / res.OffSeconds * 100
		res.SpanOverheadPct = (res.SpansSeconds - res.OffSeconds) / res.OffSeconds * 100
	}
	return res, nil
}

// WriteTimelineSummary renders the run's headline numbers.
func WriteTimelineSummary(w io.Writer, cfg TimelineConfig, res TimelineResult) {
	cfg.fill()
	fmt.Fprintf(w, "# Timeline trace: %d taxa, %d sites, f=%.2f, faults=%v\n",
		cfg.Taxa, cfg.Sites, pagingFraction, cfg.WithFaults)
	fmt.Fprintf(w, "final lnL      %.6f\n", res.LnL)
	fmt.Fprintf(w, "trace spans    %d held (dropped %d)\n", res.Spans, res.Dropped)
	fmt.Fprintf(w, "recoveries     %d\n", res.Recoveries)
	if res.Snapshot != nil {
		obs.WriteReport(w, res.Snapshot)
	}
}
