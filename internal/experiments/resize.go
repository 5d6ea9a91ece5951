package experiments

// Resize ablation — what the paper's fixed-f experiments cannot show.
// Figures 2-4 rebuild the manager for every memory fraction; the
// runtime governor instead shrinks a LIVE pool mid-run, so the
// interesting questions become (a) how each replacement strategy's
// miss rate degrades along a shrink trajectory it did not start with,
// and (b) what the resize machinery itself costs when the pool
// oscillates. Both experiments enforce the invariant the whole
// subsystem is built on: slot-count changes move I/O around but never
// change a computed likelihood bit.

import (
	"fmt"
	"io"
	"math"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
)

// ResizeAblationConfig describes the mid-run shrink experiment.
type ResizeAblationConfig struct {
	// Taxa and Sites set the dataset dimensions.
	Taxa, Sites int
	// Seed fixes dataset and starting tree.
	Seed int64
	// TraversalsPerPhase is the number of full tree traversals executed
	// at each slot count (default 2).
	TraversalsPerPhase int
}

// resizeStartF is the memory fraction a run begins with; the pool is
// halved in place from there down to ooc.MinSlots.
const resizeStartF = 0.75

func (c *ResizeAblationConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 128
	}
	if c.Sites == 0 {
		c.Sites = 200
	}
	if c.TraversalsPerPhase == 0 {
		c.TraversalsPerPhase = 2
	}
}

// ResizePhaseRow is one (strategy, slot count) segment of the shrink
// trajectory: the miss rate over exactly the accesses made while the
// live pool held Slots slots.
type ResizePhaseRow struct {
	// Strategy is the replacement policy name.
	Strategy string
	// Phase numbers the shrink steps from 0 (the starting pool).
	Phase int
	// Slots is the live pool size during this segment.
	Slots int
	// Requests and Misses are this segment's access counters (deltas,
	// not cumulative totals).
	Requests, Misses int64
	// MissRate is Misses/Requests for the segment.
	MissRate float64
	// LnL is the likelihood computed at the end of the segment — equal,
	// bit for bit, across every strategy, phase and slot count.
	LnL float64
}

// shrinkSchedule halves start until the floor, always ending exactly
// at the floor.
func shrinkSchedule(start, floor int) []int {
	var sched []int
	for s := start; s > floor; s /= 2 {
		sched = append(sched, s)
	}
	return append(sched, floor)
}

// RunResizeAblation shrinks a live manager along a halving schedule
// mid-run, for each replacement strategy, and reports the per-segment
// miss rates. Every computed likelihood is checked against an
// all-in-RAM reference; a single differing bit is an error.
func RunResizeAblation(cfg ResizeAblationConfig) ([]ResizePhaseRow, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, true)
	if err != nil {
		return nil, err
	}

	// All-in-RAM reference likelihood.
	var refLnL float64
	if _, err := w.run(arm{}, func(r *analysis.Run) (err error) {
		refLnL, err = r.Engine.LogLikelihoodAt(r.Engine.T.Edges[0])
		return err
	}); err != nil {
		return nil, err
	}

	sched := shrinkSchedule(ooc.SlotsForFraction(resizeStartF, w.tree.NumInner()), ooc.MinSlots)
	var out []ResizePhaseRow
	for _, name := range StrategyNames {
		_, err := w.run(arm{
			Fraction: resizeStartF, Strategy: name,
			Stack: ooc.StackSpec{Base: w.memStore()},
		}, func(r *analysis.Run) error {
			var prev ooc.Stats
			for phase, slots := range sched {
				if _, err := r.Resize(int64(slots) * r.Sizing.VecBytes); err != nil {
					return fmt.Errorf("%s phase %d: %w", name, phase, err)
				}
				lnl, _, err := fullTraversalWorkload(r.Engine, cfg.TraversalsPerPhase)
				if err != nil {
					return err
				}
				if math.Float64bits(lnl) != math.Float64bits(refLnL) {
					return fmt.Errorf("%s at %d slots: lnL %.17g != reference %.17g",
						name, slots, lnl, refLnL)
				}
				cur := r.Manager.Stats()
				row := ResizePhaseRow{
					Strategy: name, Phase: phase, Slots: r.Manager.Slots(),
					Requests: cur.Requests - prev.Requests,
					Misses:   cur.Misses - prev.Misses,
					LnL:      lnl,
				}
				if row.Requests > 0 {
					row.MissRate = float64(row.Misses) / float64(row.Requests)
				}
				prev = cur
				out = append(out, row)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ResizeOverheadResult quantifies what pool oscillation itself costs:
// the same traversal workload with a fixed pool versus one that is
// shrunk to Low and regrown to Slots between traversals.
type ResizeOverheadResult struct {
	// Slots and Low are the pool bounds of the oscillating run.
	Slots, Low int
	// Resizes counts the Resize calls the oscillating run issued.
	Resizes int
	// FixedTime and ResizeTime are the two runs' wall times.
	FixedTime, ResizeTime time.Duration
	// FixedLnL and ResizeLnL are the final likelihoods — bit-identical
	// by construction, re-checked at run time.
	FixedLnL, ResizeLnL float64
	// FixedStats and ResizeStats are the managers' counters: the
	// oscillating run pays for re-faulting what each shrink evicted.
	FixedStats, ResizeStats ooc.Stats
}

// Overhead returns the relative wall-time cost of oscillating,
// (ResizeTime-FixedTime)/FixedTime.
func (r ResizeOverheadResult) Overhead() float64 {
	if r.FixedTime <= 0 {
		return 0
	}
	return float64(r.ResizeTime-r.FixedTime) / float64(r.FixedTime)
}

// RunResizeOverhead measures the oscillation cost on the standard
// traversal workload with the LRU strategy. traversals bounds the
// workload length (default 6 when <= 0).
func RunResizeOverhead(cfg ResizeAblationConfig, traversals int) (*ResizeOverheadResult, error) {
	cfg.fill()
	if traversals <= 0 {
		traversals = 6
	}
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, true)
	if err != nil {
		return nil, err
	}
	slots := ooc.SlotsForFraction(resizeStartF, w.tree.NumInner())
	res := &ResizeOverheadResult{Slots: slots, Low: max(slots/2, ooc.MinSlots)}

	run := func(oscillate bool) (lnl float64, wall time.Duration, stats ooc.Stats, err error) {
		r, err := w.run(arm{
			Fraction: resizeStartF, Stack: ooc.StackSpec{Base: w.memStore()},
		}, func(r *analysis.Run) (err error) {
			begin := time.Now()
			for k := 0; k < traversals; k++ {
				if oscillate && k > 0 {
					// Shrink-and-regrow between traversals: the traversal
					// itself always runs at full width, so any extra time is
					// the resize machinery plus the re-faults it caused.
					for _, m := range []int{res.Low, res.Slots} {
						if _, err = r.Resize(int64(m) * r.Sizing.VecBytes); err != nil {
							return err
						}
						res.Resizes++
					}
				}
				if lnl, _, err = fullTraversalWorkload(r.Engine, 1); err != nil {
					return err
				}
			}
			wall = time.Since(begin)
			return nil
		})
		if err != nil {
			return 0, 0, stats, err
		}
		return lnl, wall, r.Manager.Stats(), nil
	}

	if res.FixedLnL, res.FixedTime, res.FixedStats, err = run(false); err != nil {
		return nil, err
	}
	if res.ResizeLnL, res.ResizeTime, res.ResizeStats, err = run(true); err != nil {
		return nil, err
	}
	if math.Float64bits(res.ResizeLnL) != math.Float64bits(res.FixedLnL) {
		return nil, fmt.Errorf("oscillating lnL %.17g != fixed %.17g", res.ResizeLnL, res.FixedLnL)
	}
	return res, nil
}

// WriteResizeTable renders the shrink-trajectory rows as an aligned
// text table, one row per strategy×phase.
func WriteResizeTable(w io.Writer, rows []ResizePhaseRow, cfg ResizeAblationConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Live pool shrink trajectory (%d taxa, %d sites, start f=%.2f, %d traversals/phase)\n",
		cfg.Taxa, cfg.Sites, resizeStartF, cfg.TraversalsPerPhase)
	fmt.Fprintf(w, "%-12s %6s %6s %10s %10s %8s %14s\n",
		"strategy", "phase", "slots", "requests", "misses", "miss%", "lnL")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6d %6d %10d %10d %7.2f%% %14.2f\n",
			r.Strategy, r.Phase, r.Slots, r.Requests, r.Misses, 100*r.MissRate, r.LnL)
	}
}
