package plf

import (
	"math"
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// pcacheSetup builds a DNA engine (auto kernels, cache on) plus the
// dataset needed to rebuild reference engines against the same model.
func pcacheSetup(t *testing.T, seed int64) (*Engine, *tree.Tree, *bio.Patterns) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := tipNames(12)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 250, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	return newEngine(t, tr, pats, m), tr, pats
}

// fresh builds a new engine over the engine's current model and a clone
// of its tree: an empty cache computing from scratch, the ground truth a
// cached engine must reproduce bit-for-bit.
func fresh(t *testing.T, e *Engine) float64 {
	t.Helper()
	ref := newEngine(t, e.T.Clone(), e.P, e.M)
	lnl, err := ref.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	return lnl
}

func recompute(t *testing.T, e *Engine) float64 {
	t.Helper()
	e.InvalidateAll()
	lnl, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	return lnl
}

// TestPCacheHitsOnRepeatedTraversal: re-walking the same tree must hit
// the cache (that is the point of it) and must not change any bit.
func TestPCacheHitsOnRepeatedTraversal(t *testing.T) {
	e, _, _ := pcacheSetup(t, 21)
	first := recompute(t, e)
	afterFirst := e.Stats.PCacheMisses
	if afterFirst == 0 {
		t.Fatal("first traversal should populate the cache")
	}
	second := recompute(t, e)
	if !bitsEq(first, second) {
		t.Fatalf("repeat traversal changed lnL: %.17g vs %.17g", first, second)
	}
	if e.Stats.PCacheHits == 0 {
		t.Fatal("repeat traversal over identical branch lengths must hit the cache")
	}
	if e.Stats.PCacheMisses != afterFirst {
		t.Fatalf("repeat traversal missed the cache: %d -> %d misses", afterFirst, e.Stats.PCacheMisses)
	}
}

// TestPCacheGenericModeDisablesCache: the legacy baseline must not touch
// the cache at all.
func TestPCacheGenericModeDisablesCache(t *testing.T) {
	e, _, _ := pcacheSetup(t, 22)
	if err := e.SetKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	recompute(t, e)
	recompute(t, e)
	if e.Stats.PCacheHits != 0 || e.Stats.PCacheMisses != 0 {
		t.Fatalf("generic mode used the cache: %d hits %d misses",
			e.Stats.PCacheHits, e.Stats.PCacheMisses)
	}
}

// TestPCacheInvalidation mutates every model parameter the cache key
// does NOT cover and requires the cached engine to match a fresh engine
// bit-for-bit afterwards — a stale P matrix would fail instantly.
func TestPCacheInvalidation(t *testing.T) {
	e, tr, _ := pcacheSetup(t, 23)
	recompute(t, e) // warm the cache

	if err := e.M.SetGamma(0.77, e.M.Cats()); err != nil {
		t.Fatal(err)
	}
	if got, want := recompute(t, e), fresh(t, e); !bitsEq(got, want) {
		t.Fatalf("after SetGamma: cached %.17g vs fresh %.17g", got, want)
	}

	exch := []float64{1.3, 2.9, 0.8, 1.1, 3.4, 1.0}
	if err := e.M.SetExchangeabilities(exch); err != nil {
		t.Fatal(err)
	}
	if got, want := recompute(t, e), fresh(t, e); !bitsEq(got, want) {
		t.Fatalf("after SetExchangeabilities: cached %.17g vs fresh %.17g", got, want)
	}

	if err := e.M.SetInvariant(0.2); err != nil {
		t.Fatal(err)
	}
	if got, want := recompute(t, e), fresh(t, e); !bitsEq(got, want) {
		t.Fatalf("after SetInvariant: cached %.17g vs fresh %.17g", got, want)
	}

	// Branch-length changes are covered by the key itself: a new length
	// is a new entry, never a reused one.
	for _, edge := range tr.Edges {
		edge.Length *= 1.37
	}
	if got, want := recompute(t, e), fresh(t, e); !bitsEq(got, want) {
		t.Fatalf("after branch-length change: cached %.17g vs fresh %.17g", got, want)
	}
}

// TestPCacheDropWhenFull drives more distinct branch lengths through
// evaluate than the cache holds; the wholesale drop must be counted and
// must not perturb results.
func TestPCacheDropWhenFull(t *testing.T) {
	e, tr, pats := pcacheSetup(t, 24)
	gen := newEngine(t, tr.Clone(), pats, e.M)
	if err := gen.SetKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	edge, gedge := tr.Edges[0], gen.T.Edges[0]
	n := e.c.pcache.cap + 64
	for i := 0; i < n; i++ {
		l := 0.001 + float64(i)*1e-5
		edge.Length, gedge.Length = l, l
		got, err := e.evaluate(edge)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gen.evaluate(gedge)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(got, want) {
			t.Fatalf("t=%v: cached %.17g vs generic %.17g", l, got, want)
		}
	}
	if e.Stats.PCacheDrops == 0 {
		t.Fatalf("expected at least one wholesale drop after %d distinct lengths", n)
	}
}

// TestPCacheSignedZeroSharesEntry: t = +0.0 and t = -0.0 are the same
// branch length and must share one cache entry — keying on the raw bit
// pattern used to hold two entries with bit-identical matrices.
func TestPCacheSignedZeroSharesEntry(t *testing.T) {
	e, tr, pats := pcacheSetup(t, 25)
	gen := newEngine(t, tr.Clone(), pats, e.M)
	if err := gen.SetKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	edge, gedge := tr.Edges[0], gen.T.Edges[0]

	edge.Length, gedge.Length = 0.0, 0.0
	got, err := e.evaluate(edge)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.evaluate(gedge)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(got, want) {
		t.Fatalf("t=+0: cached %.17g vs generic %.17g", got, want)
	}
	misses, hits := e.Stats.PCacheMisses, e.Stats.PCacheHits

	negZero := math.Copysign(0, -1)
	edge.Length, gedge.Length = negZero, negZero
	if got, err = e.evaluate(edge); err != nil {
		t.Fatal(err)
	}
	if want, err = gen.evaluate(gedge); err != nil {
		t.Fatal(err)
	}
	if !bitsEq(got, want) {
		t.Fatalf("t=-0: cached %.17g vs generic %.17g", got, want)
	}
	if e.Stats.PCacheMisses != misses {
		t.Errorf("t=-0 missed the cache (misses %d -> %d); -0.0 must reuse the +0.0 entry",
			misses, e.Stats.PCacheMisses)
	}
	if e.Stats.PCacheHits <= hits {
		t.Errorf("t=-0 did not hit the cache (hits %d -> %d)", hits, e.Stats.PCacheHits)
	}
}

// TestPCacheNonFiniteBypass: NaN and Inf branch lengths must bypass the
// cache entirely — a NaN key can never be re-hit usefully and would
// only waste an entry.
func TestPCacheNonFiniteBypass(t *testing.T) {
	e, _, _ := pcacheSetup(t, 26)
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
	edge := e.T.Edges[0]
	hits, misses := e.Stats.PCacheHits, e.Stats.PCacheMisses
	for _, l := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		edge.Length = l
		// Twice each: a cached non-finite entry would turn the second
		// call into a hit, a keyed one into a second miss. Results are
		// garbage-in-garbage-out; only the cache traffic matters here.
		for i := 0; i < 2; i++ {
			if _, err := e.evaluate(edge); err != nil {
				t.Fatalf("t=%v: %v", l, err)
			}
		}
	}
	if e.Stats.PCacheHits != hits || e.Stats.PCacheMisses != misses {
		t.Errorf("non-finite lengths touched the cache: hits %d -> %d, misses %d -> %d",
			hits, e.Stats.PCacheHits, misses, e.Stats.PCacheMisses)
	}
}

// TestPCacheHoldsTheTree: the cache is sized to the tree, so on a tree
// with more edges than the least cap a second full traversal finds
// every branch length cached and nothing is dropped.
func TestPCacheHoldsTheTree(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	names := tipNames(400)
	tr, err := tree.RandomTopology(names, rng, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) <= pcacheMinCap {
		t.Fatalf("%d edges: the tree must outgrow the least cap", len(tr.Edges))
	}
	e := newEngine(t, tr, randomAlignment(t, names, 20, rng, bio.DNA), randomModel(t, rng, bio.DNA, true))
	if err := e.FullTraversal(tr.Edges[0]); err != nil {
		t.Fatal(err)
	}
	misses := e.Stats.PCacheMisses
	if err := e.FullTraversal(tr.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if e.Stats.PCacheMisses != misses || e.Stats.PCacheDrops != 0 {
		t.Fatalf("second traversal: %d misses, %d drops; want 0 and 0 (cap %d, %d edges)",
			e.Stats.PCacheMisses-misses, e.Stats.PCacheDrops, e.c.pcache.cap, len(tr.Edges))
	}
}
