package plf

import (
	"math/rand"
	"slices"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/tree"
)

// validitySetup builds an engine over a random 16-taxon tree under
// GTR+Γ4, a model every setter changes.
func validitySetup(t *testing.T, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := tipNames(16)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 300, rng, bio.DNA)
	m, err := model.NewGTR([]float64{0.3, 0.2, 0.2, 0.3}, []float64{1.2, 3.1, 0.7, 0.9, 2.8, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetGamma(0.6, 4); err != nil {
		t.Fatal(err)
	}
	return newEngine(t, tr, pats, m)
}

// TestModelEditInvalidatesVectors: after SetGamma or
// SetExchangeabilities, with no call but the evaluation, the engine
// recomputes every vector and gives a fresh engine's bits.
func TestModelEditInvalidatesVectors(t *testing.T) {
	e := validitySetup(t, 31)
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	edits := []struct {
		name string
		edit func(m *model.Model) error
	}{
		{"SetGamma", func(m *model.Model) error { return m.SetGamma(1.7, 4) }},
		{"SetExchangeabilities", func(m *model.Model) error {
			return m.SetExchangeabilities([]float64{0.8, 2.2, 1.4, 0.6, 4.1, 1})
		}},
	}
	for _, ed := range edits {
		if err := ed.edit(e.M); err != nil {
			t.Fatal(err)
		}
		before := e.Stats.Newviews
		got, err := e.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, e); !bitsEq(got, want) {
			t.Fatalf("after %s: lnL %.17g, a fresh engine gives %.17g", ed.name, got, want)
		}
		if nv := e.Stats.Newviews - before; nv != int64(e.T.NumInner()) {
			t.Fatalf("after %s: %d newviews, want all %d", ed.name, nv, e.T.NumInner())
		}
	}
}

// TestSetInvariantCostsNoRecompute: the +I proportion enters only the
// root mix, so the next evaluation at the same edge recomputes no
// vector and builds no transition matrix, and still gives a fresh
// engine's bits.
func TestSetInvariantCostsNoRecompute(t *testing.T) {
	e := validitySetup(t, 32)
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.3, 0.05, 0} {
		if err := e.M.SetInvariant(p); err != nil {
			t.Fatal(err)
		}
		before := e.Stats
		got, err := e.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		if nv, miss := e.Stats.Newviews-before.Newviews, e.Stats.PCacheMisses-before.PCacheMisses; nv != 0 || miss != 0 {
			t.Fatalf("pinv %v: %d newviews and %d P-cache misses, want 0 and 0", p, nv, miss)
		}
		if want := fresh(t, e); !bitsEq(got, want) {
			t.Fatalf("pinv %v: lnL %.17g, a fresh engine gives %.17g", p, got, want)
		}
	}
}

// TestRollbackInvalidatesExactlyTheChanged marks the orientation of a
// tree oriented toward one edge, traverses toward others, and rolls
// back: the next pass toward the last edge recomputes exactly the
// nodes whose orientation changed since the mark, every one of which
// already points the way that pass wants, so a rollback that missed
// one would leave its vector to be served as valid.
func TestRollbackInvalidatesExactlyTheChanged(t *testing.T) {
	e := validitySetup(t, 33)
	rng := rand.New(rand.NewSource(5))
	total := 0
	for trial := 0; trial < 8; trial++ {
		if err := e.FullTraversal(e.T.Edges[rng.Intn(len(e.T.Edges))]); err != nil {
			t.Fatal(err)
		}
		e.MarkOrientation()
		var last *tree.Edge
		for k := 0; k < 3; k++ {
			last = e.T.Edges[rng.Intn(len(e.T.Edges))]
			if err := e.Traverse(last); err != nil {
				t.Fatal(err)
			}
		}
		var changed []int
		for i := range e.orient {
			if e.orient[i] != e.mark[i] {
				changed = append(changed, i)
			}
		}
		total += len(changed)
		e.InvalidateChangedSinceMark()
		before := e.Stats.Newviews
		got, err := e.LogLikelihoodAt(last)
		if err != nil {
			t.Fatal(err)
		}
		var recomputed []int
		for _, s := range e.plan {
			recomputed = append(recomputed, s.Node.Index)
		}
		slices.Sort(recomputed)
		if nv := e.Stats.Newviews - before; nv != int64(len(changed)) || !slices.Equal(recomputed, changed) {
			t.Fatalf("trial %d: the pass after the rollback recomputed nodes %v (%d newviews); changed since the mark: %v",
				trial, recomputed, nv, changed)
		}
		ref := newEngine(t, e.T.Clone(), e.P, e.M)
		want, err := ref.LogLikelihoodAt(ref.T.Edges[last.Index])
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(got, want) {
			t.Fatalf("trial %d: lnL %.17g after the rollback, a fresh engine gives %.17g", trial, got, want)
		}
	}
	if total == 0 {
		t.Fatal("no orientation changed after any mark: the test is vacuous")
	}
}

// TestRollbackAllocatesNothing: marking, invalidating and rolling back
// reuse engine-owned buffers once the engine is warm.
func TestRollbackAllocatesNothing(t *testing.T) {
	e := validitySetup(t, 34)
	a, b := e.T.Edges[0], e.T.Edges[len(e.T.Edges)-1]
	round := func() {
		if err := e.Traverse(a); err != nil {
			t.Fatal(err)
		}
		e.MarkOrientation()
		e.Invalidate(a.N[0], a.N[1], b.N[0])
		if err := e.Traverse(b); err != nil {
			t.Fatal(err)
		}
		e.InvalidateChangedSinceMark()
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("%v allocations per warm mark, traversal and rollback, want 0", n)
	}
}
