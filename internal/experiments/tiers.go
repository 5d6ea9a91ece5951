package experiments

// Tiered-storage ablation: the same deterministic tree search run over
// (a) a plain local FileStore, (b) a TieredStore with a cold local
// cache in front of a latency-injected loopback remote, and (c) the
// same tiered stack reopened warm — each at a sweep of injected
// round-trip times. The likelihood is bit-identical across
// every arm (enforced here, not merely reported); what moves is where
// vector reads are served from and what that costs in wall-clock.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// TierAblationConfig configures RunTierAblation.
type TierAblationConfig struct {
	// Workload is the shared search workload (defaults as in Figures
	// 2-4: 128 taxa).
	Workload SearchWorkloadConfig
	// RTTs is the injected remote round-trip sweep (default 1, 10,
	// 50 ms).
	RTTs []time.Duration
	// MemFraction sets the manager's RAM-slot fraction f (default
	// 0.25 — small enough that evicted-vector reads actually happen).
	MemFraction float64
	// ColdCacheFraction sizes the cold arm's local cache as a fraction
	// of the vector count (default 0.35: the cache cannot hold the
	// working set, so some reads go remote).
	ColdCacheFraction float64
	// Lanes is the tiered store's remote fan-out (default 2).
	Lanes int
	// Async runs the manager's background I/O pipeline (the results
	// must not change either way).
	Async bool
	// CheckWallClock additionally enforces the warm-arm wall-clock
	// bound (<= 1.25x the local baseline at 10 ms RTT). Off by default:
	// counter assertions are deterministic, wall-clock ones are only
	// meaningful at full workload scale (cmd/figures turns this on).
	CheckWallClock bool
	// Dir is the scratch directory for backing files and caches
	// (default: a fresh temp dir, removed afterwards).
	Dir string
}

func (c *TierAblationConfig) fill() {
	c.Workload.fill()
	if len(c.RTTs) == 0 {
		c.RTTs = []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}
	}
	if c.MemFraction == 0 {
		c.MemFraction = 0.25
	}
	if c.ColdCacheFraction == 0 {
		c.ColdCacheFraction = 0.35
	}
	if c.Lanes == 0 {
		c.Lanes = 2
	}
}

// TierAblationRow is one (RTT, arm) measurement.
type TierAblationRow struct {
	// RTT is the injected remote round-trip time (0 for the local arm).
	RTT time.Duration
	// Arm is "local", "cold" or "warm".
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

// tierWorkload carries the dataset built once and shared by every arm.
type tierWorkload struct {
	cfg    SearchWorkloadConfig
	data   *sim.Dataset
	start  *tree.Tree
	vecLen int
	nVec   int
	slots  int
}

func newTierWorkload(cfg SearchWorkloadConfig, memFraction float64) (*tierWorkload, error) {
	d, err := sim.NewDataset(sim.Config{
		Taxa: cfg.Taxa, Sites: cfg.Sites, GammaAlpha: cfg.GammaAlpha, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, d.Tree.NumTips)
	for i := range names {
		names[i] = d.Tree.Nodes[i].Name
	}
	start, err := tree.RandomTopology(names, rand.New(rand.NewSource(cfg.Seed+1)), 0.05, 0.15)
	if err != nil {
		return nil, err
	}
	return &tierWorkload{
		cfg:    cfg,
		data:   d,
		start:  start,
		vecLen: plf.VectorLength(d.Model, d.Patterns.NumPatterns()),
		nVec:   start.NumInner(),
		slots:  ooc.SlotsForFraction(memFraction, start.NumInner()),
	}, nil
}

// run executes the search over store and returns the measurement. The
// tree is rebuilt per run (the search mutates topology), so every arm
// replays the identical operation sequence.
func (w *tierWorkload) run(store ooc.Store, async bool) (TierAblationRow, error) {
	var row TierAblationRow
	names := make([]string, w.data.Tree.NumTips)
	for i := range names {
		names[i] = w.data.Tree.Nodes[i].Name
	}
	start, err := tree.RandomTopology(names, rand.New(rand.NewSource(w.cfg.Seed+1)), 0.05, 0.15)
	if err != nil {
		return row, err
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: w.nVec, VectorLen: w.vecLen, Slots: w.slots,
		Strategy: ooc.NewLRU(w.nVec), ReadSkipping: true,
		Store: store, Async: async,
	})
	if err != nil {
		return row, err
	}
	e, err := plf.New(start, w.data.Patterns, w.data.Model, mgr)
	if err != nil {
		return row, err
	}
	t0 := time.Now()
	sr, err := search.New(e, search.Options{
		SPRRadius: w.cfg.SPRRadius, MaxRounds: w.cfg.Rounds,
	}).Run()
	if err != nil {
		return row, err
	}
	if err := mgr.Flush(); err != nil {
		return row, err
	}
	if err := mgr.Close(); err != nil {
		return row, err
	}
	row.Elapsed = time.Since(t0)
	row.LnL = sr.LnL
	row.Slots = w.slots
	row.Manager = mgr.Stats()
	return row, nil
}

// localFraction computes the share of read demand served without a
// remote round trip.
func localFraction(mst ooc.Stats, tst ooc.TierStats) float64 {
	demand := mst.Reads + mst.SkippedReads
	if demand == 0 {
		return 1
	}
	return 1 - float64(tst.RemoteVectorsRead)/float64(demand)
}

// RunTierAblation runs the three arms at each configured RTT. It fails —
// rather than returning misleading rows — if any arm's likelihood
// diverges from the local baseline, or if the warm arm's served-locally
// fraction drops below 70%.
func RunTierAblation(cfg TierAblationConfig) ([]TierAblationRow, error) {
	cfg.fill()
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "tiers"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	w, err := newTierWorkload(cfg.Workload, cfg.MemFraction)
	if err != nil {
		return nil, err
	}

	// Local baseline, once (the RTT sweep does not touch it).
	fs, err := ooc.NewFileStore(filepath.Join(dir, "local.vec"), w.nVec, w.vecLen)
	if err != nil {
		return nil, err
	}
	local, err := w.run(fs, cfg.Async)
	fs.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: local arm: %w", err)
	}
	local.Arm = "local"
	local.LocalFraction = 1
	rows := []TierAblationRow{local}

	cacheVecs := func(frac float64) int {
		cv := int(frac*float64(w.nVec) + 0.5)
		if cv < 1 {
			cv = 1
		}
		return cv
	}

	for ri, rtt := range cfg.RTTs {
		srv, err := remote.NewServer(remote.ServerConfig{
			Device: iosim.Device{Name: "wan", Latency: rtt, Bandwidth: 500e6},
		})
		if err != nil {
			return nil, err
		}
		runTiered := func(arm, object, cacheDir string, cacheFrac float64) (TierAblationRow, error) {
			st, err := ooc.OpenStack(ooc.StackSpec{
				TieredConfig: ooc.TieredConfig{
					NumVectors: w.nVec, VectorLen: w.vecLen,
					CacheDir: cacheDir, CacheVectors: cacheVecs(cacheFrac),
					Lanes: cfg.Lanes,
				},
				URL: srv.ObjectURL(object),
			})
			if err != nil {
				return TierAblationRow{}, err
			}
			row, rerr := w.run(st.Store, cfg.Async)
			tst := st.Tier.Stats()
			if cerr := st.Close(); cerr != nil && rerr == nil {
				rerr = cerr
			}
			if rerr != nil {
				return row, fmt.Errorf("experiments: %s arm at %v: %w", arm, rtt, rerr)
			}
			row.Arm = arm
			row.RTT = rtt
			row.Tier = tst
			row.LocalFraction = localFraction(row.Manager, tst)
			return row, nil
		}

		armDir := func(name string) string {
			d := filepath.Join(dir, fmt.Sprintf("%s-%d", name, ri))
			os.MkdirAll(d, 0o755)
			return d
		}
		cold, err := runTiered("cold", fmt.Sprintf("cold-%d", ri), armDir("cold"), cfg.ColdCacheFraction)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cold)

		// Warm arm: one untimed priming run populates cache and remote,
		// then the measured run reopens the same cache directory.
		warmDir := armDir("warm")
		warmObj := fmt.Sprintf("warm-%d", ri)
		if _, err := runTiered("warm-prime", warmObj, warmDir, 1.0); err != nil {
			return nil, err
		}
		warm, err := runTiered("warm", warmObj, warmDir, 1.0)
		if err != nil {
			return nil, err
		}
		if !warm.Tier.WarmStart {
			return nil, fmt.Errorf("experiments: warm arm at %v did not adopt the primed cache", rtt)
		}
		rows = append(rows, warm)
		srv.Close()

		// Acceptance counters: every arm bit-identical; the warm cache
		// serves at least 70% of read demand.
		for _, r := range []TierAblationRow{cold, warm} {
			if r.LnL != local.LnL {
				return nil, fmt.Errorf("experiments: %s arm at %v diverged: %.10f != %.10f",
					r.Arm, rtt, r.LnL, local.LnL)
			}
		}
		if warm.LocalFraction < 0.70 {
			return nil, fmt.Errorf("experiments: warm arm at %v served only %.0f%% locally",
				rtt, 100*warm.LocalFraction)
		}
		if cfg.CheckWallClock && rtt == 10*time.Millisecond &&
			warm.Elapsed > local.Elapsed+local.Elapsed/4 {
			return nil, fmt.Errorf("experiments: warm arm at %v took %v vs local %v (> 1.25x)",
				rtt, warm.Elapsed, local.Elapsed)
		}
	}
	return rows, nil
}

// WriteTierTable renders the ablation rows.
func WriteTierTable(w io.Writer, rows []TierAblationRow, cfg TierAblationConfig) {
	cfg.fill()
	fmt.Fprintf(w, "Tiered storage ablation: %d taxa, %d sites, f=%.2f, lanes=%d, async=%v\n",
		cfg.Workload.Taxa, cfg.Workload.Sites, cfg.MemFraction, cfg.Lanes, cfg.Async)
	fmt.Fprintf(w, "%-10s %8s %10s %9s %9s %9s %9s %7s\n",
		"arm", "rtt", "elapsed", "cacheHit", "cacheMiss", "remVecRd", "coalesced", "local%")
	var base time.Duration
	for _, r := range rows {
		if r.Arm == "local" {
			base = r.Elapsed
		}
		fmt.Fprintf(w, "%-10s %8s %10s %9d %9d %9d %9d %6.1f%%",
			r.Arm, r.RTT, r.Elapsed.Round(time.Millisecond),
			r.Tier.CacheHits, r.Tier.CacheMisses, r.Tier.RemoteVectorsRead,
			r.Tier.Coalesced, 100*r.LocalFraction)
		if base > 0 {
			fmt.Fprintf(w, "  (%.2fx)", float64(r.Elapsed)/float64(base))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "lnL identical across all %d rows: %.6f\n", len(rows), rows[0].LnL)
}
