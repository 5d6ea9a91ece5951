package experiments

// Tiered-storage ablation: the same deterministic tree search run over
// (a) a plain local FileStore, (b) a TieredStore whose local cache
// holds 35% of the vectors in front of a latency-injected loopback
// remote, and (c) the same tiered stack with a cache that holds every
// vector — each at a sweep of injected round-trip times. Every cache
// starts cold. The likelihood is bit-identical across every arm
// (enforced here, not merely reported); what moves is where vector
// reads are served from and what that costs in wall-clock.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
)

// TierAblationConfig configures RunTierAblation.
type TierAblationConfig struct {
	// Workload is the shared search workload (defaults as in Figures
	// 2-4: 128 taxa).
	Workload SearchWorkloadConfig
	// RTTs is the injected remote round-trip sweep (default 1, 10,
	// 50 ms).
	RTTs []time.Duration
	// Async runs the manager's background I/O pipeline (the results
	// must not change either way).
	Async bool
}

// Fixed by the ablation's design (shared with the chaos soak).
const (
	// tierMemFraction is the -L quota as a fraction of the vectors: small
	// enough that evicted-vector reads actually happen.
	tierMemFraction = 0.25
	// tierColdCacheFraction sizes the cold arm's local cache: it cannot
	// hold the working set, so some reads go remote.
	tierColdCacheFraction = 0.35
)

// cacheVectors is the cache-tier size holding frac of n vectors.
func cacheVectors(frac float64, n int) int {
	return max(1, int(frac*float64(n)+0.5))
}

func (c *TierAblationConfig) fill() {
	c.Workload.fill()
	if len(c.RTTs) == 0 {
		c.RTTs = []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}
	}
}

// TierAblationRow is one (RTT, arm) measurement.
type TierAblationRow struct {
	// RTT is the injected remote round-trip time (0 for the local arm).
	RTT time.Duration
	// Arm is "local", "cold" or "full".
	Arm string
	// Elapsed is the search wall-clock.
	Elapsed time.Duration
	// LnL is the final likelihood (identical across all rows).
	LnL float64
	// Slots is the manager's RAM-slot count.
	Slots int
	// Manager holds the slot-manager counters.
	Manager ooc.Stats
	// Tier holds the tiered store's counters (zero for the local arm).
	Tier ooc.TierStats
	// LocalFraction is the share of vector-read demand served without a
	// remote trip: cache hits and skipped reads over all demand. 1.0
	// for the local arm.
	LocalFraction float64
}

// runTierArm executes the search over the given store stack at the
// ablation's memory fraction and returns the measurement: the manager's
// counters and, over a remote stack, the tier's, both read once the
// search's dirty vectors are flushed.
func runTierArm(w *workload, cfg SearchWorkloadConfig, stack ooc.StackSpec, async bool) (TierAblationRow, error) {
	var row TierAblationRow
	_, err := w.run(arm{Fraction: tierMemFraction, Async: async, Stack: stack}, func(r *analysis.Run) (err error) {
		t0 := time.Now()
		if row.LnL, err = searchWorkload(r.Engine, cfg); err != nil {
			return err
		}
		if err = r.Manager.Flush(); err != nil {
			return err
		}
		row.Elapsed = time.Since(t0)
		row.Slots = r.Manager.Slots()
		row.Manager = r.Manager.Stats()
		if r.Stack.Tier != nil {
			row.Tier = r.Stack.Tier.Stats()
		}
		row.LocalFraction = localFraction(row.Manager, row.Tier)
		return nil
	})
	return row, err
}

// localFraction computes the share of read demand served without a
// remote round trip (all of it without a tier).
func localFraction(mst ooc.Stats, tst ooc.TierStats) float64 {
	demand := mst.Reads + mst.SkippedReads
	if demand == 0 {
		return 1
	}
	return 1 - float64(tst.RemoteVectorsRead)/float64(demand)
}

// RunTierAblation runs the three arms at each configured RTT, all under
// the same -L quota. It fails —
// rather than returning misleading rows — if any arm's likelihood
// diverges from the local baseline, or if the full arm's served-locally
// fraction drops below 70%.
func RunTierAblation(cfg TierAblationConfig) ([]TierAblationRow, error) {
	cfg.fill()
	dir, err := os.MkdirTemp("", "tiers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newSearchWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}

	// Local baseline, once (the RTT sweep does not touch it).
	local, err := runTierArm(w, cfg.Workload, ooc.StackSpec{}, cfg.Async)
	if err != nil {
		return nil, fmt.Errorf("experiments: local arm: %w", err)
	}
	local.Arm = "local"
	rows := []TierAblationRow{local}

	for ri, rtt := range cfg.RTTs {
		srv, err := remote.NewServer(remote.ServerConfig{
			Device: iosim.Device{Name: "wan", Latency: rtt, Bandwidth: 500e6},
		})
		if err != nil {
			return nil, err
		}
		runTiered := func(name string, cacheFrac float64) (TierAblationRow, error) {
			state := fmt.Sprintf("%s-%d", name, ri)
			row, err := runTierArm(w, cfg.Workload, ooc.StackSpec{
				TieredConfig: ooc.TieredConfig{
					CacheDir:     filepath.Join(dir, state),
					CacheVectors: cacheVectors(cacheFrac, w.tree.NumInner()),
				},
				URL: srv.ObjectURL(state),
			}, cfg.Async)
			if err != nil {
				return row, fmt.Errorf("experiments: %s arm at %v: %w", name, rtt, err)
			}
			row.Arm, row.RTT = name, rtt
			return row, nil
		}

		cold, err := runTiered("cold", tierColdCacheFraction)
		if err != nil {
			return nil, err
		}
		// Full arm: the cache holds every vector, so once the run has
		// written a vector no read of it leaves the machine.
		full, err := runTiered("full", 1.0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cold, full)
		srv.Close()

		// Acceptance counters: every arm bit-identical; the full cache
		// serves at least 70% of read demand.
		for _, r := range []TierAblationRow{cold, full} {
			if r.LnL != local.LnL {
				return nil, fmt.Errorf("experiments: %s arm at %v diverged: %.10f != %.10f",
					r.Arm, rtt, r.LnL, local.LnL)
			}
		}
		if full.LocalFraction < 0.70 {
			return nil, fmt.Errorf("experiments: full arm at %v served only %.0f%% locally",
				rtt, 100*full.LocalFraction)
		}
	}
	return rows, nil
}

// WriteTierTable renders the ablation rows.
func WriteTierTable(w io.Writer, rows []TierAblationRow, cfg TierAblationConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Tiered storage ablation: %d taxa, %d sites, f=%.2f, async=%v\n",
		cfg.Workload.Taxa, cfg.Workload.Sites, tierMemFraction, cfg.Async)
	fmt.Fprintf(w, "%-10s %8s %6s %10s %9s %9s %9s %7s\n",
		"arm", "rtt", "slots", "elapsed", "cacheHit", "cacheMiss", "remVecRd", "local%")
	var base time.Duration
	for _, r := range rows {
		if r.Arm == "local" {
			base = r.Elapsed
		}
		fmt.Fprintf(w, "%-10s %8s %6d %10s %9d %9d %9d %6.1f%%",
			r.Arm, r.RTT, r.Slots, r.Elapsed.Round(time.Millisecond),
			r.Tier.CacheHits, r.Tier.CacheMisses, r.Tier.RemoteVectorsRead,
			100*r.LocalFraction)
		if base > 0 {
			fmt.Fprintf(w, "  (%.2fx)", float64(r.Elapsed)/float64(base))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "lnL identical across all %d rows: %.6f\n", len(rows), rows[0].LnL)
}
