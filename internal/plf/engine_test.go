package plf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/record"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// randomAlignment builds an n-taxon alignment of length s with uniform
// random characters (including some ambiguity codes and gaps).
func randomAlignment(tb testing.TB, names []string, s int, rng *rand.Rand, dtype bio.DataType) *bio.Patterns {
	tb.Helper()
	a := bio.NewAlphabet(dtype)
	letters := "ACGT"
	if dtype == bio.AA {
		letters = "ARNDCQEGHILKMFPSTWYV"
	}
	m := bio.NewAlignment(a)
	for _, name := range names {
		var sb strings.Builder
		for j := 0; j < s; j++ {
			switch {
			case rng.Float64() < 0.03:
				sb.WriteByte('-')
			case dtype == bio.DNA && rng.Float64() < 0.03:
				sb.WriteByte("RYSWKMN"[rng.Intn(7)])
			default:
				sb.WriteByte(letters[rng.Intn(len(letters))])
			}
		}
		if err := m.AddString(name, sb.String()); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := bio.Compress(m)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func tipNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	return names
}

func newEngine(tb testing.TB, t *tree.Tree, pats *bio.Patterns, m *model.Model) *Engine {
	tb.Helper()
	prov := NewInMemoryProvider(t.NumInner(), VectorLength(m, pats.NumPatterns()))
	e, err := New(t, pats, m, prov)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func randomModel(tb testing.TB, rng *rand.Rand, dtype bio.DataType, gamma bool) *model.Model {
	tb.Helper()
	states := 4
	if dtype == bio.AA {
		states = 20
	}
	var m *model.Model
	var err error
	switch rng.Intn(3) {
	case 0:
		m, err = model.NewJC(states)
	case 1:
		if states == 4 {
			m, err = model.NewHKY([]float64{0.2 + rng.Float64()/2, 0.2, 0.25, 0.3}, 0.5+3*rng.Float64())
		} else {
			m, err = model.NewJC(states)
		}
	default:
		freqs := make([]float64, states)
		for i := range freqs {
			freqs[i] = 0.05 + rng.Float64()
		}
		exch := make([]float64, states*(states-1)/2)
		for i := range exch {
			exch[i] = 0.2 + 2*rng.Float64()
		}
		m, err = model.NewGTR(freqs, exch, states)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if gamma {
		if err := m.SetGamma(0.2+2*rng.Float64(), 1+rng.Intn(4)); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

func TestEngineMatchesReferenceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	names := tipNames(5)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	got, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceLogLikelihood(tr, pats, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Errorf("engine lnL = %v, reference = %v", got, want)
	}
}

func TestEngineMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		names := tipNames(n)
		tr, err := tree.RandomTopology(names, rng, 0.01, 0.8)
		if err != nil {
			return false
		}
		dtype := bio.DNA
		sites := 10 + rng.Intn(60)
		if rng.Intn(4) == 0 {
			dtype = bio.AA
			sites = 5 + rng.Intn(20)
		}
		pats := randomAlignment(t, names, sites, rng, dtype)
		m := randomModel(t, rng, dtype, rng.Intn(2) == 0)
		e := newEngine(t, tr, pats, m)
		got, err := e.LogLikelihood()
		if err != nil {
			return false
		}
		want, err := ReferenceLogLikelihood(tr, pats, m)
		if err != nil {
			return false
		}
		return math.Abs(got-want) <= 1e-7*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPulleyPrinciple(t *testing.T) {
	// The likelihood of a reversible model is invariant under virtual
	// root (evaluation edge) placement.
	rng := rand.New(rand.NewSource(7))
	names := tipNames(12)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 100, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	ref, err := e.LogLikelihoodAt(tr.Edges[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range tr.Edges {
		got, err := e.LogLikelihoodAt(edge)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-ref) > 1e-8*(1+math.Abs(ref)) {
			t.Fatalf("edge %d: lnL %v differs from %v", edge.Index, got, ref)
		}
	}
}

func TestPartialTraversalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := tipNames(20)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 80, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)

	// Walk edges with partial traversals...
	partial := make([]float64, 0, len(tr.Edges))
	for _, edge := range tr.Edges {
		v, err := e.LogLikelihoodAt(edge)
		if err != nil {
			t.Fatal(err)
		}
		partial = append(partial, v)
	}
	newviewsPartial := e.Stats.Newviews

	// ...then compare against forced full traversals.
	for i, edge := range tr.Edges {
		if err := e.FullTraversal(edge); err != nil {
			t.Fatal(err)
		}
		v, err := e.evaluate(edge)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-partial[i]) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("edge %d: partial %v != full %v", edge.Index, partial[i], v)
		}
	}
	newviewsFull := e.Stats.Newviews - newviewsPartial
	if newviewsPartial >= newviewsFull {
		t.Errorf("partial traversals (%d newviews) should be cheaper than full (%d)",
			newviewsPartial, newviewsFull)
	}
}

func TestTwoTaxonAnalyticJC(t *testing.T) {
	// For two sequences under JC with branch length t, a matching site
	// has probability 1/4·(1/4 + 3/4·e^{-4t/3}) and a mismatching one
	// 1/4·(1/4 - 1/4·e^{-4t/3}).
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	_ = a.AddString("x", "AAAAACCCCC")
	_ = a.AddString("y", "AAAAACCCCG") // 9 match, 1 mismatch
	pats, err := bio.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.NewPair("x", "y", 0.25)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	got, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	bt := 0.25
	same := 0.25 * (0.25 + 0.75*math.Exp(-4*bt/3))
	diff := 0.25 * (0.25 - 0.25*math.Exp(-4*bt/3))
	want := 9*math.Log(same) + 1*math.Log(diff)
	if math.Abs(got-want) > 1e-10*math.Abs(want) {
		t.Errorf("two-taxon lnL = %v, want %v", got, want)
	}
}

func TestWeightsScaleLikelihood(t *testing.T) {
	// Duplicating every column must exactly double the log-likelihood.
	rng := rand.New(rand.NewSource(23))
	names := tipNames(6)
	tr, _ := tree.RandomTopology(names, rng, 0.05, 0.4)
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	cols := make([]string, len(names))
	for i := range names {
		var sb strings.Builder
		for j := 0; j < 40; j++ {
			sb.WriteByte("ACGT"[rng.Intn(4)])
		}
		cols[i] = sb.String()
	}
	for i, name := range names {
		_ = a.AddString(name, cols[i])
	}
	double := bio.NewAlignment(bio.NewDNAAlphabet())
	for i, name := range names {
		_ = double.AddString(name, cols[i]+cols[i])
	}
	p1, _ := bio.Compress(a)
	p2, _ := bio.Compress(double)
	m := randomModel(t, rng, bio.DNA, true)
	e1 := newEngine(t, tr, p1, m)
	e2 := newEngine(t, tr, p2, m)
	l1, err := e1.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := e2.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-2*l1) > 1e-9*math.Abs(l1) {
		t.Errorf("doubled alignment lnL %v != 2 * %v", l2, l1)
	}
	// Pattern compression must also have kept the pattern count equal.
	if p1.NumPatterns() != p2.NumPatterns() {
		t.Error("duplicate columns created new patterns")
	}
}

func TestScalingOnDeepTrees(t *testing.T) {
	// A 160-taxon tree forces per-site scaling (raw products underflow
	// double precision). Correctness evidence: the likelihood is finite,
	// scale counters fire, and evaluation is edge-invariant even though
	// different edges see different counter distributions.
	rng := rand.New(rand.NewSource(31))
	names := tipNames(160)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 30, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	ref, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ref, 0) || math.IsNaN(ref) {
		t.Fatalf("lnL not finite: %v", ref)
	}
	scaled := false
	for _, sc := range e.scales {
		for _, c := range sc {
			if c > 0 {
				scaled = true
			}
		}
	}
	if !scaled {
		t.Fatal("scaling never triggered on a 160-taxon tree; test is vacuous")
	}
	for _, edge := range []*tree.Edge{tr.Edges[5], tr.Edges[len(tr.Edges)/2], tr.Edges[len(tr.Edges)-1]} {
		got, err := e.LogLikelihoodAt(edge)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-ref) > 1e-8*math.Abs(ref) {
			t.Fatalf("edge %d: %v != %v under scaling", edge.Index, got, ref)
		}
	}
}

func TestEngineConstructionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := tipNames(4)
	tr, _ := tree.RandomTopology(names, rng, 0.05, 0.4)
	pats := randomAlignment(t, names, 20, rng, bio.DNA)
	m, _ := model.NewJC(4)

	// Wrong tip set.
	other := randomAlignment(t, []string{"w", "x", "y", "z"}, 20, rng, bio.DNA)
	prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, other.NumPatterns()))
	if _, err := New(tr, other, m, prov); err == nil {
		t.Error("mismatched taxon names must fail")
	}
	// Wrong state count.
	aam, _ := model.NewJC(20)
	if _, err := New(tr, pats, aam, prov); err == nil {
		t.Error("model/alphabet state mismatch must fail")
	}
	// Undersized provider.
	small := NewInMemoryProvider(1, VectorLength(m, pats.NumPatterns()))
	if _, err := New(tr, pats, m, small); err == nil {
		t.Error("undersized provider must fail")
	}
	// Wrong vector length.
	wrong := NewInMemoryProvider(tr.NumInner(), 7)
	if _, err := New(tr, pats, m, wrong); err == nil {
		t.Error("wrong vector length must fail")
	}
	// Taxon count mismatch.
	tr5, _ := tree.RandomTopology(tipNames(5), rng, 0.05, 0.4)
	if _, err := New(tr5, pats, m, prov); err == nil {
		t.Error("taxon count mismatch must fail")
	}
}

func TestInMemoryProviderBounds(t *testing.T) {
	p := NewInMemoryProvider(3, 8)
	if p.NumVectors() != 3 || p.VectorLen() != 8 {
		t.Fatal("provider dims wrong")
	}
	v, err := p.Vector(2, false)
	if err != nil || len(v) != 8 {
		t.Fatal("valid access failed")
	}
	if _, err := p.Vector(3, false); err == nil {
		t.Error("out of range access must fail")
	}
	if _, err := p.Vector(-1, true); err == nil {
		t.Error("negative index must fail")
	}
	// Vectors must not alias.
	a, _ := p.Vector(0, true)
	b, _ := p.Vector(1, true)
	a[0] = 42
	if b[0] == 42 {
		t.Error("vectors alias")
	}
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	names := tipNames(8)
	tr, _ := tree.RandomTopology(names, rng, 0.05, 0.4)
	pats := randomAlignment(t, names, 30, rng, bio.DNA)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Newviews != int64(tr.NumInner()) {
		t.Errorf("first evaluation should run a full traversal: %d newviews, want %d",
			e.Stats.Newviews, tr.NumInner())
	}
	if e.Stats.Evaluations != 1 {
		t.Errorf("evaluations = %d", e.Stats.Evaluations)
	}
	if _, err := e.OptimizeBranch(tr.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if e.Stats.SumTables != 1 || e.Stats.NewtonIters == 0 {
		t.Errorf("optimizer stats not recorded: %+v", e.Stats)
	}

	// Site classes: the generic kernels compute every pattern at every
	// newview; auto computes each distinct subtree pattern once, which on
	// simulated (repeat-heavy) data is strictly fewer. The registry
	// mirrors the count.
	ds, err := sim.NewDataset(sim.Config{Taxa: 24, Sites: 300, GammaAlpha: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		e := newEngine(t, ds.Tree.Clone(), ds.Patterns, ds.Model)
		if err := e.SetKernel(mode); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		e.Instrument(reg)
		if err := e.FullTraversal(e.T.Edges[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LogLikelihoodAt(e.T.Edges[7]); err != nil {
			t.Fatal(err)
		}
		all := e.Stats.Newviews * int64(ds.Patterns.NumPatterns())
		got := e.Stats.ClassesComputed
		if mode == KernelGeneric && got != all {
			t.Errorf("generic: %d classes computed, want newviews × patterns = %d", got, all)
		}
		if mode == KernelAuto && (got <= 0 || got >= all) {
			t.Errorf("auto: %d classes computed, want in (0, %d) on simulated data", got, all)
		}
		if v := reg.Counter("plf.classes_computed").Value(); v != got {
			t.Errorf("%s: registry plf.classes_computed = %d, Stats %d", mode, v, got)
		}
	}
}

// TestPrefixMarkerNeverInFullVector: whatever a slot held before (here a
// stale record marker in every slot), after a traversal each vector
// decodes as exactly its record, ncls class blocks, and a vector that
// computed every pattern — all of them under generic — decodes as full
// width, DNA and protein.
func TestPrefixMarkerNeverInFullVector(t *testing.T) {
	for _, dtype := range []bio.DataType{bio.DNA, bio.AA} {
		for _, mode := range []string{KernelAuto, KernelGeneric} {
			t.Run(fmt.Sprintf("%v_f64_%s", dtype, mode), func(t *testing.T) {
				ds, err := sim.NewDataset(sim.Config{Taxa: 20, Sites: 300, GammaAlpha: 0.5, Seed: 4, AA: dtype == bio.AA})
				if err != nil {
					t.Fatal(err)
				}
				e := newEngine(t, ds.Tree, ds.Patterns, ds.Model)
				if err := e.SetKernel(mode); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(8))
				for vi := 0; vi < e.T.NumInner(); vi++ {
					v, _ := e.prov.Vector(vi, true)
					record.Stamp(v, 1+rng.Intn(len(v)-1))
				}
				if _, err := e.LogLikelihood(); err != nil {
					t.Fatal(err)
				}
				short, full := 0, 0
				for vi := 0; vi < e.T.NumInner(); vi++ {
					v, _ := e.prov.Vector(vi, false)
					want := e.recordLen(e.ncls[vi])
					if e.ncls[vi] == e.nPat {
						want, full = len(v), full+1
					} else {
						short++
					}
					if got := record.Len(v); got != want {
						t.Fatalf("vector %d (%d of %d classes) decodes as %d words, want %d",
							vi, e.ncls[vi], e.nPat, got, want)
					}
				}
				if (mode == KernelAuto) != (short > 0) {
					t.Fatalf("%s: %d short and %d full vectors", mode, short, full)
				}
			})
		}
	}
}
