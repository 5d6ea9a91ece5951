package ooc_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/tree"
)

// These tests implement the paper's §4.1 correctness criterion: "for
// each run, we verified that the standard version and the out-of-core
// version produced exactly the same results", for every replacement
// strategy and memory fraction.

func buildCase(tb testing.TB, n, sites int, seed int64) (*tree.Tree, *bio.Patterns, *model.Model) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
	}
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.4)
	if err != nil {
		tb.Fatal(err)
	}
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	for _, name := range names {
		var sb strings.Builder
		for j := 0; j < sites; j++ {
			sb.WriteByte("ACGT"[rng.Intn(4)])
		}
		if err := a.AddString(name, sb.String()); err != nil {
			tb.Fatal(err)
		}
	}
	pats, err := bio.Compress(a)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := model.NewHKY([]float64{0.3, 0.2, 0.25, 0.25}, 2.0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.SetGamma(0.8, 4); err != nil {
		tb.Fatal(err)
	}
	return tr, pats, m
}

// workload runs a deterministic mixed PLF workload (edge walks, full
// traversals, branch optimisations) and returns the final lnL and the
// resulting branch lengths.
func workload(tb testing.TB, e *plf.Engine, tr *tree.Tree) (float64, []float64) {
	tb.Helper()
	if _, err := e.LogLikelihood(); err != nil {
		tb.Fatal(err)
	}
	for _, edge := range tr.Edges {
		if _, err := e.LogLikelihoodAt(edge); err != nil {
			tb.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, edge := range tr.Edges {
			if _, err := e.OptimizeBranch(edge); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := e.FullTraversal(tr.Edges[0]); err != nil {
		tb.Fatal(err)
	}
	lnl, err := e.LogLikelihoodAt(tr.Edges[0])
	if err != nil {
		tb.Fatal(err)
	}
	lens := make([]float64, len(tr.Edges))
	for i, edge := range tr.Edges {
		lens[i] = edge.Length
	}
	return lnl, lens
}

func strategyFor(name string, n int, tr *tree.Tree, seed int64) ooc.Strategy {
	switch name {
	case "RAND":
		return ooc.NewRandom(rand.New(rand.NewSource(seed)))
	case "LRU":
		return ooc.NewLRU(n)
	case "LFU":
		return ooc.NewLFU(n)
	case "Topological":
		return ooc.NewTopological(tr)
	}
	panic("unknown strategy " + name)
}

func TestOOCMatchesInMemoryAllStrategiesAndFractions(t *testing.T) {
	const n, sites = 24, 120
	for _, strategyName := range []string{"RAND", "LRU", "LFU", "Topological"} {
		for _, f := range []float64{0.25, 0.5, 0.75} {
			for _, readSkip := range []bool{false, true} {
				name := strategyName + "/f=" +
					map[float64]string{0.25: "0.25", 0.5: "0.50", 0.75: "0.75"}[f]
				if readSkip {
					name += "/skip"
				}
				t.Run(name, func(t *testing.T) {
					// Standard run.
					trA, patsA, mA := buildCase(t, n, sites, 99)
					std := plf.NewInMemoryProvider(trA.NumInner(), plf.VectorLength(mA, patsA.NumPatterns()))
					eA, err := plf.New(trA, patsA, mA, std)
					if err != nil {
						t.Fatal(err)
					}
					wantLnl, wantLens := workload(t, eA, trA)

					// Out-of-core run on an identical problem instance.
					trB, patsB, mB := buildCase(t, n, sites, 99)
					vecLen := plf.VectorLength(mB, patsB.NumPatterns())
					mgr, err := ooc.NewManager(ooc.Config{
						NumVectors:   trB.NumInner(),
						VectorLen:    vecLen,
						Slots:        ooc.SlotsForFraction(f, trB.NumInner()),
						Strategy:     strategyFor(strategyName, trB.NumInner(), trB, 7),
						ReadSkipping: readSkip,
						Store:        ooc.NewMemStore(trB.NumInner(), vecLen),
					})
					if err != nil {
						t.Fatal(err)
					}
					eB, err := plf.New(trB, patsB, mB, mgr)
					if err != nil {
						t.Fatal(err)
					}
					gotLnl, gotLens := workload(t, eB, trB)

					if gotLnl != wantLnl {
						t.Errorf("lnL differs: ooc %v vs standard %v", gotLnl, wantLnl)
					}
					for i := range wantLens {
						if gotLens[i] != wantLens[i] {
							t.Errorf("branch %d length differs: %v vs %v", i, gotLens[i], wantLens[i])
						}
					}
					st := mgr.Stats()
					if f < 1 && st.Misses == 0 {
						t.Error("workload never missed; the test exercised nothing")
					}
					if err := mgr.CheckInvariants(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

func TestOOCWithRealFileStore(t *testing.T) {
	const n, sites = 16, 80
	trA, patsA, mA := buildCase(t, n, sites, 5)
	std := plf.NewInMemoryProvider(trA.NumInner(), plf.VectorLength(mA, patsA.NumPatterns()))
	eA, err := plf.New(trA, patsA, mA, std)
	if err != nil {
		t.Fatal(err)
	}
	wantLnl, _ := workload(t, eA, trA)

	trB, patsB, mB := buildCase(t, n, sites, 5)
	vecLen := plf.VectorLength(mB, patsB.NumPatterns())
	store, err := ooc.NewFileStore(filepath.Join(t.TempDir(), "anc.bin"), trB.NumInner(), vecLen)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors:   trB.NumInner(),
		VectorLen:    vecLen,
		Slots:        ooc.MinSlots, // hardest case: only 3 vectors in RAM
		Strategy:     ooc.NewLRU(trB.NumInner()),
		ReadSkipping: true,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	eB, err := plf.New(trB, patsB, mB, mgr)
	if err != nil {
		t.Fatal(err)
	}
	gotLnl, _ := workload(t, eB, trB)
	if gotLnl != wantLnl {
		t.Errorf("file-backed ooc lnL %v differs from standard %v", gotLnl, wantLnl)
	}
	if mgr.Stats().MissRate() <= 0 {
		t.Error("MinSlots run should have a substantial miss rate")
	}
}

func TestOOCWriteBackDirtyCorrect(t *testing.T) {
	const n, sites = 16, 60
	trA, patsA, mA := buildCase(t, n, sites, 11)
	std := plf.NewInMemoryProvider(trA.NumInner(), plf.VectorLength(mA, patsA.NumPatterns()))
	eA, err := plf.New(trA, patsA, mA, std)
	if err != nil {
		t.Fatal(err)
	}
	wantLnl, _ := workload(t, eA, trA)

	trB, patsB, mB := buildCase(t, n, sites, 11)
	vecLen := plf.VectorLength(mB, patsB.NumPatterns())
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors:   trB.NumInner(),
		VectorLen:    vecLen,
		Slots:        ooc.SlotsForFraction(0.3, trB.NumInner()),
		Strategy:     ooc.NewLRU(trB.NumInner()),
		ReadSkipping: true,
		Store:        ooc.NewMemStore(trB.NumInner(), vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	eB, err := plf.New(trB, patsB, mB, mgr)
	if err != nil {
		t.Fatal(err)
	}
	gotLnl, _ := workload(t, eB, trB)
	if gotLnl != wantLnl {
		t.Errorf("dirty-only write-back lnL %v differs from standard %v", gotLnl, wantLnl)
	}
	st := mgr.Stats()
	if st.SkippedWrites == 0 {
		t.Error("dirty-tracking never skipped a write; the check is vacuous")
	}
}

func TestMissRateDecreasesWithMoreSlots(t *testing.T) {
	// Monotonicity backbone of Figure 2/4: more RAM, fewer misses.
	const n, sites = 32, 100
	rates := make([]float64, 0, 4)
	var lastMisses, lastInner int64
	for _, f := range []float64{0.1, 0.25, 0.5, 1.0} {
		tr, pats, m := buildCase(t, n, sites, 21)
		vecLen := plf.VectorLength(m, pats.NumPatterns())
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: tr.NumInner(), VectorLen: vecLen,
			Slots:    ooc.SlotsForFraction(f, tr.NumInner()),
			Strategy: ooc.NewLRU(tr.NumInner()),
			Store:    ooc.NewMemStore(tr.NumInner(), vecLen),
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := plf.New(tr, pats, m, mgr)
		if err != nil {
			t.Fatal(err)
		}
		workload(t, e, tr)
		rates = append(rates, mgr.Stats().MissRate())
		lastMisses = mgr.Stats().Misses
		lastInner = int64(tr.NumInner())
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]+1e-9 {
			t.Fatalf("miss rate not monotone: %v", rates)
		}
	}
	// f = 1: exactly one cold miss per vector, nothing more.
	if lastMisses != lastInner {
		t.Errorf("f=1 should miss once per vector: %d misses for %d vectors", lastMisses, lastInner)
	}
	if math.Abs(rates[0]) < 1e-9 {
		t.Error("f=0.1 should miss substantially")
	}
}

func TestOOCProteinData(t *testing.T) {
	// The 20-state path through the manager: same exactness criterion.
	rng := rand.New(rand.NewSource(61))
	names := make([]string, 10)
	for i := range names {
		names[i] = "p" + string(rune('a'+i))
	}
	trA, err := tree.RandomTopology(names, rng, 0.05, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	a := bio.NewAlignment(bio.NewAAAlphabet())
	letters := "ARNDCQEGHILKMFPSTWYV"
	for _, name := range names {
		var sb strings.Builder
		for j := 0; j < 50; j++ {
			sb.WriteByte(letters[rng.Intn(20)])
		}
		if err := a.AddString(name, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	pats, err := bio.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewJC(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetGamma(0.9, 4); err != nil {
		t.Fatal(err)
	}
	vecLen := plf.VectorLength(m, pats.NumPatterns())
	trB := trA.Clone() // clone before the standard workload mutates branch lengths

	std := plf.NewInMemoryProvider(trA.NumInner(), vecLen)
	eA, err := plf.New(trA, pats, m, std)
	if err != nil {
		t.Fatal(err)
	}
	wantLnl, _ := workload(t, eA, trA)
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors:   trB.NumInner(),
		VectorLen:    vecLen,
		Slots:        ooc.MinSlots,
		Strategy:     ooc.NewLRU(trB.NumInner()),
		ReadSkipping: true,
		Store:        ooc.NewMemStore(trB.NumInner(), vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	eB, err := plf.New(trB, pats, m.Clone(), mgr)
	if err != nil {
		t.Fatal(err)
	}
	gotLnl, _ := workload(t, eB, trB)
	if gotLnl != wantLnl {
		t.Errorf("protein ooc lnL %v differs from standard %v", gotLnl, wantLnl)
	}
	if mgr.Stats().Misses == 0 {
		t.Error("MinSlots protein run should miss")
	}
}
