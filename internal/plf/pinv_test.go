package plf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

func TestInvariantMixtureMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		names := tipNames(n)
		tr, err := tree.RandomTopology(names, rng, 0.01, 0.6)
		if err != nil {
			return false
		}
		pats := randomAlignment(t, names, 15+rng.Intn(50), rng, bio.DNA)
		m := randomModel(t, rng, bio.DNA, rng.Intn(2) == 0)
		if err := m.SetInvariant(rng.Float64() * 0.8); err != nil {
			return false
		}
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

func TestInvariantZeroMatchesPlainModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := tipNames(8)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.4)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e1 := newEngine(t, tr.Clone(), pats, m.Clone())
	plain, err := e1.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	if err := m2.SetInvariant(0); err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, tr.Clone(), pats, m2)
	withZero, err := e2.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if plain != withZero {
		t.Errorf("pInv=0 must be exactly the plain model: %v vs %v", plain, withZero)
	}
}

func TestInvariantDerivativesMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := tipNames(9)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	if err := m.SetInvariant(0.3); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, tr, pats, m)
	edge := tr.Edges[1]
	if err := e.Traverse(edge); err != nil {
		t.Fatal(err)
	}
	if err := e.buildSumTable(edge); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []float64{0.05, 0.3, 1.0} {
		_, d1, d2 := e.sumTableValues(bt, true)
		const h1, h2 = 1e-6, 1e-4
		lp, _, _ := e.sumTableValues(bt+h1, true)
		lm, _, _ := e.sumTableValues(bt-h1, true)
		fd1 := (lp - lm) / (2 * h1)
		lp2, _, _ := e.sumTableValues(bt+h2, true)
		lm2, _, _ := e.sumTableValues(bt-h2, true)
		l0, _, _ := e.sumTableValues(bt, true)
		fd2 := (lp2 - 2*l0 + lm2) / (h2 * h2)
		if math.Abs(d1-fd1) > 1e-4*(1+math.Abs(fd1)) {
			t.Errorf("t=%v: d1 = %v, finite diff %v", bt, d1, fd1)
		}
		if math.Abs(d2-fd2) > 1e-3*(1+math.Abs(fd2)) {
			t.Errorf("t=%v: d2 = %v, finite diff %v", bt, d2, fd2)
		}
	}
	// The sum-table likelihood still matches a direct evaluation.
	direct, err := e.LogLikelihoodAt(edge)
	if err != nil {
		t.Fatal(err)
	}
	viaTable, err := e.EvaluateAtLength(edge, edge.Length)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-viaTable) > 1e-8*(1+math.Abs(direct)) {
		t.Errorf("evaluate %v vs sum table %v under +I", direct, viaTable)
	}
}

func TestInvariantImprovesFitOnInvariantRichData(t *testing.T) {
	// An alignment where half the sites are constant: the +I model must
	// beat the plain Γ fit at the same branch lengths.
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	rng := rand.New(rand.NewSource(9))
	names := tipNames(6)
	for _, name := range names {
		buf := make([]byte, 200)
		for j := range buf {
			if j < 100 {
				buf[j] = "ACGT"[j%4] // constant across taxa
			} else {
				buf[j] = "ACGT"[rng.Intn(4)]
			}
		}
		if err := a.AddString(name, string(buf)); err != nil {
			t.Fatal(err)
		}
	}
	pats, _ := bio.Compress(a)
	tr, _ := tree.RandomTopology(names, rand.New(rand.NewSource(2)), 0.2, 0.5)
	m := randomModel(t, rand.New(rand.NewSource(3)), bio.DNA, true)
	e0 := newEngine(t, tr.Clone(), pats, m.Clone())
	plain, err := e0.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	mI := m.Clone()
	if err := mI.SetInvariant(0.4); err != nil {
		t.Fatal(err)
	}
	eI := newEngine(t, tr.Clone(), pats, mI)
	withI, err := eI.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if withI <= plain {
		t.Errorf("+I should improve invariant-rich fit: %v vs %v", withI, plain)
	}
}

func TestSetInvariantValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomModel(t, rng, bio.DNA, false)
	for _, p := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		if err := m.SetInvariant(p); err == nil {
			t.Errorf("pInv=%v must be rejected", p)
		}
	}
	if err := m.SetInvariant(0.5); err != nil {
		t.Fatal(err)
	}
	if m.Clone().PInv != 0.5 {
		t.Error("Clone lost PInv")
	}
}
