package tree

import (
	"errors"
	"fmt"
)

// ErrNotInner is returned when a pruning junction is a tip.
var ErrNotInner = errors.New("tree: pruning junction must be an inner node")

// Prune represents a subtree detached from the tree by a
// subtree-pruning step, ready to be regrafted (possibly repeatedly, as
// the lazy-SPR search does when it scans candidate insertion branches)
// and finally either kept in place or rolled back.
//
// Pruning cuts at junction u: u keeps its pendant edge to the subtree
// root v, u's two other neighbors a and b become directly connected by
// reusing one of the freed edges, and the other freed edge becomes the
// spare used by Regraft.
type Prune struct {
	t *Tree
	// u is the junction (inner) node travelling with the subtree;
	// v is the subtree root on the far side of the pendant edge.
	u, v *Node
	// a, b are u's former neighbors in the remaining tree.
	a, b *Node
	// merged is the edge now connecting a and b (reused ea slot).
	merged *Edge
	// spare is the fully detached edge slot (former eb).
	spare *Edge
	// la, lb are the original lengths of {u,a} and {u,b}.
	la, lb float64
	// graftTarget, graftLen remember an active regraft for undo.
	graftTarget *Edge
	grafted     bool
	gx, gy      *Node
	glen        float64
}

// PruneSubtree detaches the subtree that hangs from inner node u via
// its edge to v. The remaining tree stays structurally consistent
// (a and b joined by a branch whose length is the sum of the removed
// branches). The returned Prune supports Regraft/Ungraft/Restore.
func PruneSubtree(t *Tree, u, v *Node) (*Prune, error) {
	if u.IsTip() {
		return nil, ErrNotInner
	}
	pendant := u.EdgeTo(v)
	if pendant == nil {
		return nil, fmt.Errorf("tree: nodes %d and %d are not adjacent", u.Index, v.Index)
	}
	var others [2]*Edge
	k := 0
	for _, e := range u.Adj {
		if e != pendant {
			others[k] = e
			k++
		}
	}
	ea, eb := others[0], others[1]
	a, b := ea.Other(u), eb.Other(u)
	p := &Prune{t: t, u: u, v: v, a: a, b: b, merged: ea, spare: eb, la: ea.Length, lb: eb.Length}
	t.detach(ea)
	t.detach(eb)
	t.attach(ea, a, b, ea.Length+eb.Length)
	return p, nil
}

// MergedEdge returns the branch that replaced the pruning site in the
// remaining tree; it is the natural center for radius-bounded regraft
// candidate scans.
func (p *Prune) MergedEdge() *Edge { return p.merged }

// Regraft inserts the pruned subtree into edge g = {x, y} of the
// remaining tree, splitting it into {x, u} and {u, y} with half the
// original length each (the lazy-SPR default; the optimiser adjusts the
// three affected branches afterwards). Regrafting onto the merged edge
// reconstructs a topology equivalent to the original. An active regraft
// must be undone (Ungraft) before the next one.
func (p *Prune) Regraft(g *Edge) error {
	if p.grafted {
		return errors.New("tree: Regraft called with an active regraft; call Ungraft first")
	}
	if g == p.spare {
		return errors.New("tree: cannot regraft onto the detached spare edge")
	}
	// The target must lie in the remaining component, i.e. not in the
	// pruned subtree. The subtree contains u; a cheap check: neither
	// endpoint may be u or reachable only via u. Full reachability is
	// O(n); we rely on callers scanning the remaining component (the
	// candidate enumerators below do), and only guard the cheap cases.
	if g.N[0] == p.u || g.N[1] == p.u {
		return errors.New("tree: regraft target inside pruned subtree")
	}
	x, y := g.N[0], g.N[1]
	half := g.Length / 2
	if half < MinBranchLength {
		half = MinBranchLength
	}
	p.graftTarget = g
	p.gx, p.gy = x, y
	p.glen = g.Length
	p.t.detach(g)
	p.t.attach(g, x, p.u, half)
	p.t.attach(p.spare, p.u, y, half)
	p.grafted = true
	return nil
}

// Ungraft undoes the active Regraft, returning the tree to the pruned
// state so another candidate branch can be tried.
func (p *Prune) Ungraft() error {
	if !p.grafted {
		return errors.New("tree: Ungraft without active regraft")
	}
	p.t.detach(p.graftTarget)
	p.t.detach(p.spare)
	p.t.attach(p.graftTarget, p.gx, p.gy, p.glen)
	p.grafted = false
	p.graftTarget = nil
	return nil
}

// Restore rolls the whole pruning back: any active regraft is undone
// and the subtree is re-attached at its original location with the
// original branch lengths.
func (p *Prune) Restore() error {
	if p.grafted {
		if err := p.Ungraft(); err != nil {
			return err
		}
	}
	p.t.detach(p.merged)
	p.t.attach(p.merged, p.u, p.a, p.la)
	p.t.attach(p.spare, p.u, p.b, p.lb)
	return nil
}

// EdgesWithinRadius returns the edges of the component containing start
// whose closer endpoint is at node distance < radius from either
// endpoint of start. It is used to bound lazy-SPR regraft scans, and —
// because BFS never crosses into a disconnected component — it yields
// only valid regraft targets when called on a Prune's merged edge.
// start itself is included (regrafting there restores the original
// topology, which search drivers typically skip explicitly).
func EdgesWithinRadius(t *Tree, start *Edge, radius int) []*Edge {
	type item struct {
		n *Node
		d int
	}
	seenNode := make(map[int]bool)
	seenEdge := make(map[int]bool)
	var out []*Edge
	queue := []item{{start.N[0], 0}, {start.N[1], 0}}
	seenNode[start.N[0].Index] = true
	seenNode[start.N[1].Index] = true
	seenEdge[start.Index] = true
	out = append(out, start)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d >= radius {
			continue
		}
		for _, e := range cur.n.Adj {
			if !seenEdge[e.Index] {
				seenEdge[e.Index] = true
				out = append(out, e)
			}
			o := e.Other(cur.n)
			if !seenNode[o.Index] {
				seenNode[o.Index] = true
				queue = append(queue, item{o, cur.d + 1})
			}
		}
	}
	return out
}

// NNI performs a nearest-neighbor interchange across internal edge
// e = {u, v}: the neighbor subtree of u selected by uSide (0 or 1,
// counting e-excluded adjacencies) is exchanged with the neighbor
// subtree of v selected by vSide. The returned function undoes the move.
func NNI(t *Tree, e *Edge, uSide, vSide int) (undo func(), err error) {
	u, v := e.N[0], e.N[1]
	if u.IsTip() || v.IsTip() {
		return nil, errors.New("tree: NNI requires an internal edge")
	}
	pick := func(n *Node, side int) *Edge {
		k := 0
		for _, adj := range n.Adj {
			if adj == e {
				continue
			}
			if k == side {
				return adj
			}
			k++
		}
		return nil
	}
	eu := pick(u, uSide)
	ev := pick(v, vSide)
	if eu == nil || ev == nil {
		return nil, fmt.Errorf("tree: NNI side out of range (%d, %d)", uSide, vSide)
	}
	exchange := func(fromU, toU, fromV, toV *Node) {
		// Move eu's endpoint fromU to toU and ev's endpoint fromV to toV.
		t.detach(eu)
		t.detach(ev)
		eu.replace(fromU, toU)
		ev.replace(fromV, toV)
		for _, ed := range []*Edge{eu, ev} {
			ed.N[0].Adj = append(ed.N[0].Adj, ed)
			ed.N[1].Adj = append(ed.N[1].Adj, ed)
		}
	}
	exchange(u, v, v, u)
	return func() { exchange(v, u, u, v) }, nil
}
