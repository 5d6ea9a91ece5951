package tree

import "sort"

// Canonicalize rewrites the tree's internal representation — the
// adjacency-list order of every node and the endpoint-slot order of
// every edge — into the unique form determined by topology and tip
// names alone. Two structurally equal trees, however they were built
// (parsed from Newick, mutated in place by SPR surgeries, cloned),
// leave Canonicalize with bit-identical internal layouts.
//
// This matters because parts of the likelihood machinery are
// representation-sensitive in floating point even though they are
// value-equivalent in real arithmetic: evaluation applies the P matrix
// across an edge onto the N[1] side, and surgery helpers pick merged/
// spare edges by adjacency position. A checkpoint-resumed search
// re-parses its tree and would otherwise walk a representation that
// differs from the uninterrupted run's in exactly these hidden ways,
// breaking bit-identical resume. Search drivers call Canonicalize at
// round boundaries so both runs re-converge to the same layout.
//
// The canonical form: every edge stores the endpoint nearer the
// anchor (the lexicographically smallest tip) in N[0]; every node
// lists the edge toward the anchor first, then subtree edges ordered
// by their smallest contained tip name. Topology, branch lengths,
// node identities and indices are untouched, so engine caches keyed
// by node or edge index stay valid.
func Canonicalize(t *Tree) {
	if t.NumTips == 0 {
		return
	}
	var walk func(n, from *Node)
	walk = func(n, from *Node) {
		sort.SliceStable(n.Adj, func(i, j int) bool {
			oi, oj := n.Adj[i].Other(n), n.Adj[j].Other(n)
			if oi == from {
				return true
			}
			if oj == from {
				return false
			}
			return MinTipToward(oi, n, t.NumTips) < MinTipToward(oj, n, t.NumTips)
		})
		for _, e := range n.Adj {
			o := e.Other(n)
			if o == from {
				continue
			}
			if e.N[0] != n {
				e.N[0], e.N[1] = e.N[1], e.N[0]
			}
			walk(o, n)
		}
	}
	walk(Anchor(t), nil)
}

// Anchor returns the tip with the lexicographically smallest name: the
// root of the canonical form and of every canonical traversal order.
func Anchor(t *Tree) *Node {
	best := t.Nodes[0]
	for i := 1; i < t.NumTips; i++ {
		if t.Nodes[i].Name < best.Name {
			best = t.Nodes[i]
		}
	}
	return best
}

// CanonicalAdj returns n's adjacent edges ordered by the smallest tip
// name behind each, computed fresh, so a topology edit is reflected
// identically in every run that reached the same tree.
func CanonicalAdj(t *Tree, n *Node) []*Edge {
	out := append([]*Edge(nil), n.Adj...)
	sort.Slice(out, func(i, j int) bool {
		return MinTipToward(out[i].Other(n), n, t.NumTips) < MinTipToward(out[j].Other(n), n, t.NumTips)
	})
	return out
}

// MinTipToward returns the lexicographically smallest tip name in the
// subtree containing n when the edge toward from is cut: the key of
// every canonical order.
func MinTipToward(n, from *Node, numTips int) string {
	if n.Index < numTips {
		return n.Name
	}
	best := ""
	for _, e := range n.Adj {
		o := e.Other(n)
		if o == from {
			continue
		}
		if m := MinTipToward(o, n, numTips); best == "" || m < best {
			best = m
		}
	}
	return best
}
