package ooc_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
)

// The pipeline may change WHEN I/O happens, never WHAT is computed. The
// equivalence tests below run each workload twice, once over a store
// that answers at once (the "sync" arm) and once over the same store
// made to lag (the "async" arm, ooc.Lagging), and demand identical
// likelihoods and counters.

// asyncCase runs the standard mixed workload (likelihoods at every
// edge, branch optimisation, full traversal) once, over a lagging store
// when lag is set, and returns every observable: the likelihood trace
// endpoint, optimised branch lengths, and all manager counters.
func asyncCase(t *testing.T, strategyName string, f float64, readSkip, lag bool) (float64, []float64, ooc.Stats) {
	t.Helper()
	const n, sites, seed = 24, 120, 99
	tr, pats, mdl := buildCase(t, n, sites, seed)
	inner := tr.NumInner()
	vecLen := plf.VectorLength(mdl, pats.NumPatterns())
	var store ooc.Store = ooc.NewMemStore(inner, vecLen)
	if lag {
		store = ooc.Lagging(store)
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: inner, VectorLen: vecLen,
		Slots:        ooc.SlotsForFraction(f, inner),
		Strategy:     strategyFor(strategyName, inner, tr, seed),
		ReadSkipping: readSkip,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := plf.New(tr, pats, mdl, mgr)
	if err != nil {
		t.Fatal(err)
	}
	lnl, lens := workload(t, e, tr)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return lnl, lens, mgr.Stats()
}

// TestAsyncEquivalenceAllStrategies is the pipeline's correctness bar:
// for every replacement strategy × read-skipping combination, a lagging
// store must leave the log-likelihood bit-identical and every
// miss/read/write counter unchanged.
func TestAsyncEquivalenceAllStrategies(t *testing.T) {
	for _, strategyName := range []string{"RAND", "LRU", "LFU", "Topological"} {
		for _, readSkip := range []bool{false, true} {
			name := strategyName
			if readSkip {
				name += "/skip"
			}
			t.Run(name, func(t *testing.T) {
				sLnL, sLens, sStats := asyncCase(t, strategyName, 0.25, readSkip, false)
				aLnL, aLens, aStats := asyncCase(t, strategyName, 0.25, readSkip, true)
				if sLnL != aLnL {
					t.Errorf("likelihood diverged: sync %v, async %v", sLnL, aLnL)
				}
				for i := range sLens {
					if sLens[i] != aLens[i] {
						t.Fatalf("optimised branch %d diverged: sync %v, async %v", i, sLens[i], aLens[i])
					}
				}
				if sStats != aStats {
					t.Errorf("manager counters diverged:\n sync %+v\nasync %+v", sStats, aStats)
				}
			})
		}
	}
}

// sprTrace runs a short SPR search, over a lagging store when lag is
// set, and returns the full recorded likelihood trace (start, per-round
// implicit in Result) plus counters.
func sprTrace(t *testing.T, lag bool) (search.Result, ooc.Stats) {
	t.Helper()
	const n, sites, seed = 16, 96, 7
	tr, pats, mdl := buildCase(t, n, sites, seed)
	inner := tr.NumInner()
	vecLen := plf.VectorLength(mdl, pats.NumPatterns())
	var store ooc.Store = ooc.NewMemStore(inner, vecLen)
	if lag {
		store = ooc.Lagging(store)
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: inner, VectorLen: vecLen,
		Slots:        ooc.SlotsForFraction(0.3, inner),
		Strategy:     ooc.NewLRU(inner),
		ReadSkipping: true,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := plf.New(tr, pats, mdl, mgr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.New(e, search.Options{SPRRadius: 4, MaxRounds: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return *res, mgr.Stats()
}

// TestAsyncEquivalenceSPRSearch replays an SPR tree-search workload —
// the paper's evaluation workload, with its long recorded trace of
// likelihood evaluations — over a prompt and a lagging store, and
// demands an identical search trajectory (same moves accepted, same
// likelihoods) and identical Stats.
func TestAsyncEquivalenceSPRSearch(t *testing.T) {
	sRes, sStats := sprTrace(t, false)
	aRes, aStats := sprTrace(t, true)
	// Alpha is NaN when not optimised and NaN != NaN; neutralise it so
	// the struct comparison checks the actual trajectory fields.
	sRes.Alpha, aRes.Alpha = 0, 0
	if sRes != aRes {
		t.Errorf("SPR search trajectory diverged:\n sync %+v\nasync %+v", sRes, aRes)
	}
	if sStats != aStats {
		t.Errorf("manager counters diverged on SPR workload:\n sync %+v\nasync %+v", sStats, aStats)
	}
}

// TestAsyncPipelineOnRealFiles is the -race integration test of the
// full pipeline (the writer goroutine and its queue) over an
// actual on-disk FileStore: a run whose file lags must match a run over
// the bare file.
func TestAsyncPipelineOnRealFiles(t *testing.T) {
	run := func(lag bool) (float64, []float64, ooc.Stats) {
		const n, sites, seed = 20, 100, 31
		tr, pats, mdl := buildCase(t, n, sites, seed)
		inner := tr.NumInner()
		vecLen := plf.VectorLength(mdl, pats.NumPatterns())
		store, err := ooc.NewFileStore(filepath.Join(t.TempDir(), "vec.bin"), inner, vecLen)
		if err != nil {
			t.Fatal(err)
		}
		var st ooc.Store = store
		if lag {
			st = ooc.Lagging(store)
		}
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: inner, VectorLen: vecLen,
			Slots:        ooc.SlotsForFraction(0.25, inner),
			Strategy:     ooc.NewLRU(inner),
			ReadSkipping: true,
			Store:        st,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := plf.New(tr, pats, mdl, mgr)
		if err != nil {
			t.Fatal(err)
		}
		lnl, lens := workload(t, e, tr)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return lnl, lens, mgr.Stats()
	}
	sLnL, sLens, sStats := run(false)
	aLnL, aLens, aStats := run(true)
	if sLnL != aLnL {
		t.Errorf("likelihood diverged on file-backed stores: sync %v, async %v", sLnL, aLnL)
	}
	if fmt.Sprintf("%v", sLens) != fmt.Sprintf("%v", aLens) {
		t.Error("optimised branch lengths diverged on file-backed stores")
	}
	if sStats != aStats {
		t.Errorf("manager counters diverged on file-backed stores:\n sync %+v\nasync %+v", sStats, aStats)
	}
}
