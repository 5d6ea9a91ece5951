package experiments

import (
	"context"
	"fmt"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

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
		a := arm{Fraction: pagingFraction, Stack: ooc.StackSpec{Base: w.memStore()}}
		if obsArm >= obsArmOn {
			a.Registry = obs.NewRegistry()
		}
		_, err = w.run(a, func(r *analysis.Run) (err error) {
			if obsArm == obsArmSpans {
				col := obs.NewSpanCollector(8)
				root := col.StartTrace("workload")
				r.SetContext(obs.ContextWithSpan(context.Background(), root))
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
