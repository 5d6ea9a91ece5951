package search

// Canonical traversal orders — the foundation of exact resume. A
// checkpointed search resumes from a tree re-parsed out of Newick,
// whose node and edge indices and adjacency-list orders differ from
// the in-place-mutated tree of an uninterrupted run. Any sweep order
// derived from indices or Adj slots therefore diverges between the
// two runs, and because branch smoothing and the SPR polish are
// sequential coordinate ascents, a different visit order means
// different final branch lengths — bit-identity gone.
//
// The orders here depend only on topology and tip names, both of
// which survive a Newick round-trip exactly: the traversal anchors at
// the lexicographically smallest tip and, at every node, descends
// subtrees in order of their smallest contained tip name — the anchor
// and key tree.Canonicalize uses (tree.Anchor, tree.MinTipToward).
// Identical trees yield identical orders no matter how they were built.

import (
	"sort"

	"oocphylo/internal/tree"
)

// anchorEdge returns the canonical anchor tip's pendant branch: the
// index-independent stand-in for "evaluate the likelihood somewhere".
func anchorEdge(t *tree.Tree) *tree.Edge {
	return tree.Anchor(t).Adj[0]
}

// canonicalOrder walks the tree from the canonical anchor, descending
// subtrees by smallest tip name, and returns every branch in
// visitation order plus every inner node in first-visit order.
// Consecutive branches share a node (it is a DFS), preserving the
// access locality SmoothBranches' out-of-core miss rates depend on.
func canonicalOrder(t *tree.Tree) ([]*tree.Edge, []*tree.Node) {
	edges := make([]*tree.Edge, 0, len(t.Edges))
	inner := make([]*tree.Node, 0, len(t.Nodes)-t.NumTips)
	var walk func(n, from *tree.Node)
	walk = func(n, from *tree.Node) {
		if n.Index >= t.NumTips {
			inner = append(inner, n)
		}
		type step struct {
			e   *tree.Edge
			o   *tree.Node
			key string
		}
		var steps []step
		for _, e := range n.Adj {
			o := e.Other(n)
			if o == from {
				continue
			}
			steps = append(steps, step{e, o, tree.MinTipToward(o, n, t.NumTips)})
		}
		sort.Slice(steps, func(i, j int) bool { return steps[i].key < steps[j].key })
		for _, s := range steps {
			edges = append(edges, s.e)
			walk(s.o, n)
		}
	}
	walk(tree.Anchor(t), nil)
	return edges, inner
}
