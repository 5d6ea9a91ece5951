package ooc_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
)

// asyncCase runs the standard mixed workload (likelihoods at every
// edge, branch optimisation, full traversal) once and returns every
// observable: the likelihood trace endpoint, optimised branch lengths,
// and all manager counters.
func asyncCase(t *testing.T, strategyName string, f float64, readSkip, async bool,
	depth int) (float64, []float64, ooc.Stats, ooc.PrefetchStats) {
	t.Helper()
	const n, sites, seed = 24, 120, 99
	tr, pats, mdl := buildCase(t, n, sites, seed)
	inner := tr.NumInner()
	vecLen := plf.VectorLength(mdl, pats.NumPatterns())
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: inner, VectorLen: vecLen,
		Slots:        ooc.SlotsForFraction(f, inner),
		Strategy:     strategyFor(strategyName, inner, tr, seed),
		ReadSkipping: readSkip,
		Store:        ooc.NewMemStore(inner, vecLen),
		Async:        async, IOWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := plf.New(tr, pats, mdl, mgr)
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefetch(true)
	e.SetPrefetchDepth(depth)
	lnl, lens := workload(t, e, tr)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return lnl, lens, mgr.Stats(), mgr.PrefetchStats()
}

// TestAsyncEquivalenceAllStrategies is the tentpole's correctness bar:
// for every replacement strategy × read-skipping combination, turning
// the async pipeline on must leave the log-likelihood bit-identical and
// every miss/read/write counter unchanged. The pipeline may change WHEN
// I/O happens, never WHAT is computed.
func TestAsyncEquivalenceAllStrategies(t *testing.T) {
	for _, strategyName := range []string{"RAND", "LRU", "LFU", "Topological"} {
		for _, readSkip := range []bool{false, true} {
			name := strategyName
			if readSkip {
				name += "/skip"
			}
			t.Run(name, func(t *testing.T) {
				sLnL, sLens, sStats, sPf := asyncCase(t, strategyName, 0.25, readSkip, false, 2)
				aLnL, aLens, aStats, aPf := asyncCase(t, strategyName, 0.25, readSkip, true, 2)
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
				if sPf != aPf {
					t.Errorf("prefetch counters diverged:\n sync %+v\nasync %+v", sPf, aPf)
				}
			})
		}
	}
}

// sprTrace runs a short SPR search and returns the full recorded
// likelihood trace (start, per-round implicit in Result) plus counters.
func sprTrace(t *testing.T, async bool) (search.Result, ooc.Stats) {
	t.Helper()
	const n, sites, seed = 16, 96, 7
	tr, pats, mdl := buildCase(t, n, sites, seed)
	inner := tr.NumInner()
	vecLen := plf.VectorLength(mdl, pats.NumPatterns())
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: inner, VectorLen: vecLen,
		Slots:        ooc.SlotsForFraction(0.3, inner),
		Strategy:     ooc.NewLRU(inner),
		ReadSkipping: true,
		Store:        ooc.NewMemStore(inner, vecLen),
		Async:        async,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := plf.New(tr, pats, mdl, mgr)
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefetch(true)
	e.SetPrefetchDepth(2)
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
// likelihood evaluations — sync and async, and demands an identical
// search trajectory (same moves accepted, same likelihoods) and
// identical Stats.Misses.
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

// TestAsyncPipelineOnRealFiles is the -race integration test required
// by the issue: the full pipeline (worker goroutines, write-back queue,
// joins) over an actual on-disk FileStore, verified against a
// synchronous run of the same workload.
func TestAsyncPipelineOnRealFiles(t *testing.T) {
	run := func(async bool) (float64, []float64, ooc.Stats) {
		const n, sites, seed = 20, 100, 31
		tr, pats, mdl := buildCase(t, n, sites, seed)
		inner := tr.NumInner()
		vecLen := plf.VectorLength(mdl, pats.NumPatterns())
		store, err := ooc.NewFileStore(filepath.Join(t.TempDir(), "vec.bin"), inner, vecLen)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: inner, VectorLen: vecLen,
			Slots:        ooc.SlotsForFraction(0.25, inner),
			Strategy:     ooc.NewLRU(inner),
			ReadSkipping: true,
			Store:        store,
			Async:        async, IOWorkers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := plf.New(tr, pats, mdl, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e.EnablePrefetch(true)
		e.SetPrefetchDepth(3)
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
