package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomTree(t *testing.T, n int, seed int64) *Tree {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	tr, err := RandomTopology(names, rand.New(rand.NewSource(seed)), 0.02, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkPlan verifies post-order validity: every step's non-tip inputs
// must have been computed (in the correct orientation) by an earlier
// step or be valid in the starting orientation.
func checkPlan(t *testing.T, tr *Tree, steps []Step, orient Orientation) {
	t.Helper()
	valid := make(Orientation, len(tr.Nodes))
	copy(valid, orient)
	seen := map[int]bool{}
	for i, s := range steps {
		if s.Node.IsTip() {
			t.Fatalf("step %d computes a tip", i)
		}
		if seen[s.Node.Index] {
			t.Fatalf("step %d recomputes node %d within one plan", i, s.Node.Index)
		}
		seen[s.Node.Index] = true
		for _, in := range []struct {
			n *Node
			e *Edge
		}{{s.Left, s.LeftEdge}, {s.Right, s.RightEdge}} {
			if in.e.Other(s.Node) != in.n {
				t.Fatalf("step %d: edge does not connect node to child", i)
			}
			if !in.n.IsTip() && valid[in.n.Index] != s.Node {
				t.Fatalf("step %d: input vector %d not valid toward %d", i, in.n.Index, s.Node.Index)
			}
		}
		if s.Toward == nil || s.Node.EdgeTo(s.Toward) == nil {
			t.Fatalf("step %d: Toward is not a neighbor", i)
		}
		valid[s.Node.Index] = s.Toward
	}
}

func TestFullTraversalCoversAllInnerNodes(t *testing.T) {
	for _, n := range []int{3, 4, 7, 20, 101} {
		tr := randomTree(t, n, int64(n))
		e := tr.Edges[0]
		steps := FullTraversal(tr, e)
		if len(steps) != tr.NumInner() {
			t.Fatalf("n=%d: %d steps, want %d", n, len(steps), tr.NumInner())
		}
		checkPlan(t, tr, steps, NewOrientation(len(tr.Nodes)))
		// Both endpoints of e must end up valid toward each other.
		orient := NewOrientation(len(tr.Nodes))
		ApplyOrientation(orient, steps)
		for k := 0; k < 2; k++ {
			end, other := e.N[k], e.N[1-k]
			if !end.IsTip() && orient[end.Index] != other {
				t.Fatalf("endpoint %d not oriented toward partner", end.Index)
			}
		}
	}
}

func TestFullTraversalTwoTips(t *testing.T) {
	tr := NewPair("a", "b", 0.2)
	if steps := FullTraversal(tr, tr.Edges[0]); len(steps) != 0 {
		t.Error("two-tip traversal must be empty")
	}
}

func TestEdgeTraversalUsesValidVectors(t *testing.T) {
	tr := randomTree(t, 20, 9)
	e := tr.Edges[0]
	orient := NewOrientation(len(tr.Nodes))
	full := FullTraversal(tr, e)
	ApplyOrientation(orient, full)
	// Re-requesting the same edge needs no work.
	if again := AppendEdgeTraversal(nil, e, orient); len(again) != 0 {
		t.Fatalf("redundant traversal emitted %d steps", len(again))
	}
	// A different edge needs only the nodes on the path between the two
	// virtual roots (orientation flips along the path).
	other := tr.Edges[len(tr.Edges)-1]
	steps := AppendEdgeTraversal(nil, other, orient)
	if len(steps) == 0 && other != e {
		// Possible only if other shares both endpoints with e; not the
		// case for distinct edges of a binary tree.
		t.Fatal("expected some recompute work for a different edge")
	}
	if len(steps) >= tr.NumInner() {
		t.Fatalf("partial traversal (%d) should be cheaper than full (%d)", len(steps), tr.NumInner())
	}
	checkPlan(t, tr, steps, orient)
}

func TestEdgeTraversalPropertyAllEdges(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 3 + int(nRaw)%30
		names := make([]string, n)
		for i := range names {
			names[i] = "q" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		tr, err := RandomTopology(names, rand.New(rand.NewSource(seed)), 0.02, 0.4)
		if err != nil {
			return false
		}
		orient := NewOrientation(len(tr.Nodes))
		// Walk all edges in order, planning into one reused buffer; each
		// plan must validate and leave the requested edge evaluable.
		var steps []Step
		for _, e := range tr.Edges {
			steps = AppendEdgeTraversal(steps[:0], e, orient)
			// Validate dependencies by simulation.
			valid := make(Orientation, len(tr.Nodes))
			copy(valid, orient)
			for _, s := range steps {
				for _, in := range []*Node{s.Left, s.Right} {
					if !in.IsTip() && valid[in.Index] != s.Node {
						return false
					}
				}
				valid[s.Node.Index] = s.Toward
			}
			ApplyOrientation(orient, steps)
			for k := 0; k < 2; k++ {
				end, otherEnd := e.N[k], e.N[1-k]
				if !end.IsTip() && orient[end.Index] != otherEnd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNodeDistances(t *testing.T) {
	// (a,b,(c,d)): center x, inner y. Distances from a: x=1, b=2, y=2, c=3, d=3.
	tr, err := ParseNewick("(a:1,b:1,(c:1,d:1):1);")
	if err != nil {
		t.Fatal(err)
	}
	a := tr.TipByName("a")
	d := NodeDistances(tr, a)
	if d[a.Index] != 0 {
		t.Error("distance to self must be 0")
	}
	b := tr.TipByName("b")
	c := tr.TipByName("c")
	if d[b.Index] != 2 || d[c.Index] != 3 {
		t.Errorf("distances: b=%d (want 2), c=%d (want 3)", d[b.Index], d[c.Index])
	}
	if PathLength(tr, a, c) != 3 || PathLength(tr, c, a) != 3 {
		t.Error("PathLength must be symmetric")
	}
}

func TestNodeDistancesCoverAllNodes(t *testing.T) {
	tr := randomTree(t, 25, 13)
	d := NodeDistances(tr, tr.Nodes[0])
	for i, x := range d {
		if x < 0 {
			t.Fatalf("node %d unreachable", i)
		}
	}
}

func TestOrientationInvalidate(t *testing.T) {
	o := NewOrientation(5)
	o[2] = &Node{}
	o.Invalidate()
	for _, x := range o {
		if x != nil {
			t.Fatal("Invalidate left valid entries")
		}
	}
}
