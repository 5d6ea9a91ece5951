package plf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// checkClassMaps requires every valid node's class map and class count
// to equal the ones a fresh build gives the node from its children's
// current maps, in a freshly built engine: by induction from the tips,
// every map is then the one a fresh engine classifies for the same
// orientation. With identityOK, a node may instead hold the identity
// map, as one that KernelGeneric built and auto has not rebuilt does.
func checkClassMaps(t *testing.T, e *Engine, identityOK bool, tag string) {
	t.Helper()
	fresh := newEngine(t, e.T, e.P, e.M)
	checked := 0
	for vi := range e.ncls {
		n := e.T.Nodes[vi+e.T.NumTips]
		toward := e.orient[n.Index]
		if toward == nil {
			continue
		}
		var kids []*tree.Node
		for _, adj := range n.Adj {
			if o := adj.Other(n); o != toward {
				kids = append(kids, o)
				if !o.IsTip() {
					fresh.cls[fresh.vi(o)] = slices.Clone(e.cls[e.vi(o)])
					fresh.ncls[fresh.vi(o)] = e.ncls[e.vi(o)]
				}
			}
		}
		fresh.classify(vi, kids[0], kids[1])
		got := e.cls[vi][:e.nPat]
		identity := e.ncls[vi] == e.nPat
		for i, c := range got {
			identity = identity && int(c) == i
		}
		if (e.ncls[vi] != fresh.ncls[vi] || !slices.Equal(got, fresh.cls[vi])) && !(identityOK && identity) {
			t.Fatalf("%s: node %d toward %d: %d classes, a fresh build gives %d (maps equal: %v)",
				tag, n.Index, toward.Index, e.ncls[vi], fresh.ncls[vi], slices.Equal(got, fresh.cls[vi]))
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("%s: no valid node to check", tag)
	}
}

// TestClassMapReuseExact drives one engine through full traversals
// toward a cycle of edges, lazy-SPR trials with their rollback, an
// applied move and a corruption recovery, and requires after every op
// that every valid class map is what a fresh build gives. Reuse must
// also have happened (fewer maps built than newviews), or the test
// proves nothing.
func TestClassMapReuseExact(t *testing.T) {
	ds, err := sim.NewDataset(sim.Config{Taxa: 24, Sites: 300, GammaAlpha: 0.6, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, ds.Tree, ds.Patterns, ds.Model)
	tr := e.T
	rng := rand.New(rand.NewSource(3))
	cycle := func(tag string) {
		for k := 0; k < 6; k++ {
			edge := tr.Edges[rng.Intn(len(tr.Edges))]
			if err := e.FullTraversal(edge); err != nil {
				t.Fatal(err)
			}
			checkClassMaps(t, e, false, fmt.Sprintf("%s full traversal %d toward edge %d", tag, k, edge.Index))
		}
	}
	cycle("initial")
	if e.Stats.ClassMapsBuilt >= e.Stats.Newviews {
		t.Fatalf("%d maps built in %d newviews: no map was reused", e.Stats.ClassMapsBuilt, e.Stats.Newviews)
	}

	// Lazy-SPR moves as package search makes them: point every vector at
	// the edit site, prune, try candidate insertions, then roll back
	// (the first moves) or keep one (the last).
	moves := 0
	for attempt := 0; moves < 3 && attempt < 50; attempt++ {
		u := tr.Nodes[tr.NumTips+rng.Intn(tr.NumInner())]
		v := u.Adj[rng.Intn(3)].Other(u)
		pendant := u.EdgeTo(v)
		if err := e.Traverse(pendant); err != nil {
			t.Fatal(err)
		}
		p, err := tree.PruneSubtree(tr, u, v)
		if err != nil {
			t.Fatal(err)
		}
		merged := p.MergedEdge()
		e.Invalidate(u, merged.N[0], merged.N[1])
		e.MarkOrientation()
		var last *tree.Edge
		for _, g := range tree.EdgesWithinRadius(tr, merged, 3) {
			if g == merged {
				continue
			}
			gx, gy := g.N[0], g.N[1]
			if err := p.Regraft(g); err != nil {
				t.Fatal(err)
			}
			e.Invalidate(u, gx, gy)
			if _, err := e.LogLikelihoodAt(pendant); err != nil {
				t.Fatal(err)
			}
			checkClassMaps(t, e, false, fmt.Sprintf("move %d trial at edge %d", moves, g.Index))
			if err := p.Ungraft(); err != nil {
				t.Fatal(err)
			}
			e.Invalidate(u, gx, gy)
			last = g
		}
		if last == nil {
			if err := p.Restore(); err != nil {
				t.Fatal(err)
			}
			e.Invalidate(u, merged.N[0], merged.N[1])
			continue
		}
		e.InvalidateChangedSinceMark()
		if moves < 2 {
			if err := p.Restore(); err != nil {
				t.Fatal(err)
			}
			e.Invalidate(u, merged.N[0], merged.N[1])
		} else {
			if err := p.Regraft(last); err != nil {
				t.Fatal(err)
			}
			e.Invalidate(u, last.N[0], last.N[1])
		}
		if _, err := e.LogLikelihoodAt(tr.Edges[rng.Intn(len(tr.Edges))]); err != nil {
			t.Fatal(err)
		}
		checkClassMaps(t, e, false, fmt.Sprintf("move %d concluded", moves))
		moves++
	}
	if moves < 3 {
		t.Fatal("no SPR move had a candidate insertion")
	}
	// After the applied move, full traversals rebuild above the edit and
	// reuse everywhere else.
	cycle("after the applied move")
}

// TestClassMapReuseAfterRecovery corrupts stored vectors behind an
// out-of-core manager: the recomputed nodes keep their children, so
// they reuse their maps, which must still be the fresh ones.
func TestClassMapReuseAfterRecovery(t *testing.T) {
	rig := newCorruptionRig(t, 16, 64, 3, 11)
	e := rig.e
	first, last := e.T.Edges[0], e.T.Edges[len(e.T.Edges)-1]
	for _, edge := range []*tree.Edge{first, last} {
		if _, err := e.LogLikelihoodAt(edge); err != nil {
			t.Fatal(err)
		}
		checkClassMaps(t, e, false, fmt.Sprintf("clean, edge %d", edge.Index))
	}
	if rig.corruptNonResident(t) == 0 {
		t.Fatal("no stored vectors to corrupt; shrink slots")
	}
	built, newviews := e.Stats.ClassMapsBuilt, e.Stats.Newviews
	if _, err := e.LogLikelihoodAt(first); err != nil {
		t.Fatal(err)
	}
	checkClassMaps(t, e, false, "after recovery")
	if e.Stats.Recoveries == 0 {
		t.Fatal("no corrupt vector was read; the test is vacuous")
	}
	if b, nv := e.Stats.ClassMapsBuilt-built, e.Stats.Newviews-newviews; b >= nv {
		t.Fatalf("recovery built %d maps in %d newviews: none reused", b, nv)
	}
}
