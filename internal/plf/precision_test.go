package plf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/record"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// TestCarrierLength pins the carrier-page geometry: f64 carriers are the
// logical vector, f32 carriers pack two elements per float64 and so hold
// exactly half the bytes (rounded up to a whole float64).
func TestCarrierLength(t *testing.T) {
	m, err := model.NewJC(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetGamma(0.7, 4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nPat int
		prec string
		want int
	}{
		{100, PrecisionF64, 1600},
		{100, PrecisionF32, 800},
		{101, PrecisionF64, 1616},
		{101, PrecisionF32, 808}, // 1616 floats -> 808 carriers, no padding (even)
		{1, PrecisionF64, 16},
		{1, PrecisionF32, 8},
	} {
		got, err := CarrierLength(m, tc.nPat, tc.prec)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("CarrierLength(nPat=%d, %s) = %d, want %d", tc.nPat, tc.prec, got, tc.want)
		}
	}
	if _, err := CarrierLength(m, 10, "f16"); err == nil {
		t.Fatal("unknown precision must be rejected")
	}
	// The halving that -precision f32 advertises: per-vector store bytes
	// drop by exactly 2x whenever the logical length is even.
	f64len, _ := CarrierLength(m, 250, PrecisionF64)
	f32len, _ := CarrierLength(m, 250, PrecisionF32)
	if f32len*2 != f64len {
		t.Fatalf("f32 carrier %d is not half the f64 carrier %d", f32len, f64len)
	}
}

// TestVecViewPacking checks the unsafe reinterpretation round-trips:
// float32 values written through the view are the bytes the carrier
// stores and re-reads.
func TestVecViewPacking(t *testing.T) {
	carrier := make([]float64, 3) // room for 5 logical f32 + 1 pad
	v := vecView[float32](carrier, 5)
	if len(v) != 5 {
		t.Fatalf("view length %d, want 5", len(v))
	}
	for i := range v {
		v[i] = float32(i) + 0.5
	}
	again := vecView[float32](carrier, 5)
	for i := range again {
		if again[i] != float32(i)+0.5 {
			t.Fatalf("view[%d] = %v after round-trip", i, again[i])
		}
	}
	// f64 views alias the carrier directly.
	d := vecView[float64](carrier, 3)
	if &d[0] != &carrier[0] || len(d) != 3 {
		t.Fatal("f64 view must alias the carrier")
	}
}

// TestPrefixMarkerNeverInFullVector: whatever a slot held before (here a
// stale record marker in every slot), after a traversal each vector
// decodes as exactly its record, ncls class blocks, and a vector that
// computed every pattern — all of them under generic — decodes as full
// width, at f64 and f32, DNA and protein. The f32 rows also give every
// full vector's last word a stale marker's high half, standing in for
// the 4 padding bytes of an odd-length vector: it still decodes full.
func TestPrefixMarkerNeverInFullVector(t *testing.T) {
	for _, dtype := range []bio.DataType{bio.DNA, bio.AA} {
		for _, prec := range []string{PrecisionF64, PrecisionF32} {
			for _, mode := range []string{KernelAuto, KernelGeneric} {
				t.Run(fmt.Sprintf("%v_%s_%s", dtype, prec, mode), func(t *testing.T) {
					ds, err := sim.NewDataset(sim.Config{Taxa: 20, Sites: 300, GammaAlpha: 0.5, Seed: 4, AA: dtype == bio.AA})
					if err != nil {
						t.Fatal(err)
					}
					e := newEngineP(t, ds.Tree, ds.Patterns, ds.Model, prec)
					if err := e.SetKernel(mode); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(8))
					var stale float64
					for vi := 0; vi < e.T.NumInner(); vi++ {
						v, _ := e.prov.Vector(vi, true)
						record.Stamp(v, 1+rng.Intn(len(v)-1))
						stale = v[len(v)-1]
					}
					if _, err := e.LogLikelihood(); err != nil {
						t.Fatal(err)
					}
					short, full := 0, 0
					for vi := 0; vi < e.T.NumInner(); vi++ {
						v, _ := e.prov.Vector(vi, false)
						want := e.recordLen(e.ncls[vi])
						if e.ncls[vi] == e.nPat {
							want, full = e.carrierLen, full+1
						} else {
							short++
						}
						if got := record.Len(v); got != want {
							t.Fatalf("vector %d (%d of %d classes) decodes as %d words, want %d",
								vi, e.ncls[vi], e.nPat, got, want)
						}
						if e.ncls[vi] == e.nPat && prec == PrecisionF32 {
							last := math.Float64bits(v[len(v)-1])
							padded := last&(1<<32-1) | math.Float64bits(stale)&^(1<<32-1)
							if got := record.Len([]float64{0, math.Float64frombits(padded)}); got != 2 {
								t.Fatalf("vector %d: a full f32 word beside stale padding decodes as a %d-word record", vi, got)
							}
						}
					}
					if (mode == KernelAuto) != (short > 0) {
						t.Fatalf("%s: %d short and %d full vectors", mode, short, full)
					}
				})
			}
		}
	}
}

// TestNewWithPrecisionValidation covers constructor edges: empty
// precision defaults to f64, bogus precision errors, and a provider
// sized for the wrong carrier length is rejected.
func TestNewWithPrecisionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := tipNames(6)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)

	prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns()))
	e, err := NewWithPrecision(tr.Clone(), pats, m, prov, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Precision() != PrecisionF64 {
		t.Fatalf("empty precision: got %q, want f64", e.Precision())
	}

	if _, err := NewWithPrecision(tr.Clone(), pats, m, prov, "f128"); err == nil {
		t.Fatal("bogus precision must be rejected")
	}
	// An f64-sized provider is the wrong geometry for an f32 engine.
	if _, err := NewWithPrecision(tr.Clone(), pats, m, prov, PrecisionF32); err == nil {
		t.Fatal("f64-sized provider must be rejected for an f32 engine")
	}
}

// TestF32AccuracyBudget is the documented accuracy contract for f32
// mode: on a realistic dataset the f32 log-likelihood and the optimised
// branch length agree with f64 to a relative 1e-4 (the EXPERIMENTS.md
// budget), while the raw lnL magnitudes are in the thousands.
func TestF32AccuracyBudget(t *testing.T) {
	for _, dtype := range []bio.DataType{bio.DNA, bio.AA} {
		rng := rand.New(rand.NewSource(31))
		names := tipNames(32)
		tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sites := 2000
		if dtype == bio.AA {
			sites = 500
		}
		pats := randomAlignment(t, names, sites, rng, dtype)
		m := randomModel(t, rng, dtype, true)

		e64 := newEngineP(t, tr.Clone(), pats, m, PrecisionF64)
		e32 := newEngineP(t, tr.Clone(), pats, m, PrecisionF32)
		l64, err := e64.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		l32, err := e32.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(l64-l32) / math.Abs(l64)
		t.Logf("%v: lnL f64 %.6f f32 %.6f (rel %.2e)", dtype, l64, l32, rel)
		if rel > 1e-4 {
			t.Fatalf("%v: f32 lnL %.6f vs f64 %.6f: relative error %.2e exceeds 1e-4 budget",
				dtype, l32, l64, rel)
		}

		o64, err := e64.OptimizeBranch(e64.T.Edges[2])
		if err != nil {
			t.Fatal(err)
		}
		o32, err := e32.OptimizeBranch(e32.T.Edges[2])
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(o64-o32) / math.Abs(o64); rel > 1e-4 {
			t.Fatalf("%v: optimised lnL relative error %.2e exceeds 1e-4", dtype, rel)
		}
		t64, t32 := e64.T.Edges[2].Length, e32.T.Edges[2].Length
		if d := math.Abs(t64 - t32); d > 1e-3*(t64+1e-6) {
			t.Fatalf("%v: optimised branch length %v (f32) vs %v (f64)", dtype, t32, t64)
		}
	}
}

// TestF32ScalingUnderflow drives an f32 engine deep into the scaled
// regime (long chains of tiny branch lengths on wide trees) and checks
// the per-precision scaling machinery keeps the likelihood finite and
// close to the f64 reference.
func TestF32ScalingUnderflow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := tipNames(48)
	tr, err := tree.RandomTopology(names, rng, 1e-6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 300, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e32 := newEngineP(t, tr.Clone(), pats, m, PrecisionF32)
	e64 := newEngineP(t, tr.Clone(), pats, m, PrecisionF64)
	l32, err := e32.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	l64, err := e64.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(l32, 0) || math.IsNaN(l32) {
		t.Fatalf("f32 lnL not finite: %v", l32)
	}
	if rel := math.Abs(l64-l32) / math.Abs(l64); rel > 1e-4 {
		t.Fatalf("scaled regime: f32 %.6f vs f64 %.6f (rel %.2e)", l32, l64, rel)
	}
	if e32.Stats.Newviews == 0 {
		t.Fatal("expected newviews to run")
	}
}
