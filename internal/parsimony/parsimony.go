// Package parsimony implements Fitch parsimony over the bit-mask state
// encoding of package bio, plus randomized stepwise-addition tree
// construction — the method RAxML uses to build its starting trees
// (the paper's §4.1 experiments start from exactly such trees). The
// ambiguity semantics are free: a tip's IUPAC mask is its Fitch state
// set.
package parsimony

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// Score returns the Fitch parsimony score (minimum number of state
// changes) of pats on t: one post-order pass per site pattern,
// weighted. The score of an unrooted tree is independent of the
// traversal anchor.
func Score(t *tree.Tree, pats *bio.Patterns) (int, error) {
	rows, err := tipRows(t, pats)
	if err != nil {
		return 0, err
	}
	if t.NumTips == 2 {
		// Single branch: changes where the two masks are disjoint.
		total := 0
		for p, w := range pats.Weights {
			if pats.Columns[rows[0]][p]&pats.Columns[rows[1]][p] == 0 {
				total += w
			}
		}
		return total, nil
	}
	nPat := pats.NumPatterns()
	sets := make([]bio.StateMask, len(t.Nodes)*nPat)
	steps := tree.FullTraversal(t, t.Edges[0])
	total := 0
	for _, s := range steps {
		l := nodeSets(sets, pats, rows, s.Left, nPat)
		r := nodeSets(sets, pats, rows, s.Right, nPat)
		dst := sets[s.Node.Index*nPat : (s.Node.Index+1)*nPat]
		for p := 0; p < nPat; p++ {
			inter := l[p] & r[p]
			if inter == 0 {
				dst[p] = l[p] | r[p]
				total += pats.Weights[p]
			} else {
				dst[p] = inter
			}
		}
	}
	// Close the loop across the anchor edge.
	e := t.Edges[0]
	a := nodeSets(sets, pats, rows, e.N[0], nPat)
	b := nodeSets(sets, pats, rows, e.N[1], nPat)
	for p := 0; p < nPat; p++ {
		if a[p]&b[p] == 0 {
			total += pats.Weights[p]
		}
	}
	return total, nil
}

// nodeSets returns the Fitch set slice for a node, materialising tip
// masks on first use.
func nodeSets(sets []bio.StateMask, pats *bio.Patterns, rows []int, n *tree.Node, nPat int) []bio.StateMask {
	out := sets[n.Index*nPat : (n.Index+1)*nPat]
	if n.IsTip() {
		copy(out, pats.Columns[rows[n.Index]])
	}
	return out
}

// tipRows maps tree tip indices to alignment rows by name.
func tipRows(t *tree.Tree, pats *bio.Patterns) ([]int, error) {
	rows := make([]int, t.NumTips)
	for ti := 0; ti < t.NumTips; ti++ {
		rows[ti] = -1
		for r, name := range pats.Names {
			if name == t.Nodes[ti].Name {
				rows[ti] = r
				break
			}
		}
		if rows[ti] < 0 {
			return nil, fmt.Errorf("parsimony: tip %q missing from alignment", t.Nodes[ti].Name)
		}
	}
	return rows, nil
}

// StepwiseAddition builds a tree by randomized stepwise addition: taxa
// are shuffled, the first three form a triplet, and each further taxon
// is inserted into the branch minimising the incremental parsimony
// cost, estimated per branch from bidirectional Fitch sets (the
// standard quick-add heuristic). Branch lengths are uniform
// placeholders for the ML optimiser to refine. Deterministic given rng.
// Each insertion costs a pass over the tree, so the whole is quadratic
// in the taxa; ctx is checked once per inserted taxon, and a done ctx
// ends the build with its error.
func StepwiseAddition(ctx context.Context, pats *bio.Patterns, rng *rand.Rand) (*tree.Tree, error) {
	n := pats.NumTaxa()
	if n < 2 {
		return nil, fmt.Errorf("parsimony: need at least 2 taxa, got %d", n)
	}
	order := rng.Perm(n)
	if n == 2 {
		return tree.NewPair(pats.Names[0], pats.Names[1], tree.DefaultBranchLength), nil
	}
	t := tree.NewTriplet(
		[3]string{pats.Names[order[0]], pats.Names[order[1]], pats.Names[order[2]]},
		[3]float64{tree.DefaultBranchLength, tree.DefaultBranchLength, tree.DefaultBranchLength})

	nPat := pats.NumPatterns()
	// Tip ti is taxon order[ti]: the triplet's tips are order[0..2], and
	// GraftTip gives the tip it adds the next tip index. The buffers are
	// sized for the finished tree's 2n−3 edges.
	nE := 2*n - 3
	ds := &directed{
		down: make([]bio.StateMask, nE*nPat),
		up:   make([]bio.StateMask, nE*nPat),
		done: make([]bool, 2*nE),
	}
	for k := 3; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := order[k]
		down, up := ds.sets(t, pats, order[:k], nPat)
		mask := pats.Columns[row]
		bestEdge, bestCost := -1, math.MaxInt
		for _, e := range t.Edges {
			// The Fitch state set *on* edge e: the intersection of the
			// two directed sets when they agree, their union when a
			// change already sits on e. Inserting the new tip costs a
			// change exactly where its mask misses that set.
			cost := 0
			d := down[e.Index*nPat : (e.Index+1)*nPat]
			u := up[e.Index*nPat : (e.Index+1)*nPat]
			for p := 0; p < nPat; p++ {
				edgeSet := d[p] & u[p]
				if edgeSet == 0 {
					edgeSet = d[p] | u[p]
				}
				if edgeSet&mask[p] == 0 {
					cost += pats.Weights[p]
					if cost >= bestCost {
						break
					}
				}
			}
			if cost < bestCost {
				bestCost = cost
				bestEdge = e.Index
			}
		}
		t.GraftTip(pats.Names[row], t.Edges[bestEdge], tree.DefaultBranchLength)
	}
	return t, t.Check()
}

// directed holds the two directed Fitch sets of every edge, reused by
// each insertion of a stepwise addition.
type directed struct {
	down, up []bio.StateMask
	// done[2·e+1] marks edge e's down set computed, done[2·e] its up
	// set.
	done []bool
}

// sets computes, for every edge e = {N[0], N[1]}, the Fitch set of the
// subtree behind N[0] (down) and behind N[1] (up), i.e. the two state
// sets that meet across e. Tip ti's set is row rows[ti]'s masks.
func (d *directed) sets(t *tree.Tree, pats *bio.Patterns, rows []int, nPat int) (down, up []bio.StateMask) {
	nE := len(t.Edges)
	down, up = d.down[:nE*nPat], d.up[:nE*nPat]
	done := d.done[:2*nE]
	clear(done)

	// setBehind(v, via) = Fitch set of the subtree containing v when
	// edge `via` is removed, written into out.
	fill := func(v *tree.Node, via *tree.Edge, out []bio.StateMask) {
		if v.IsTip() {
			copy(out, pats.Columns[rows[v.Index]])
			return
		}
		first := true
		var buf []bio.StateMask
		for _, e := range v.Adj {
			if e == via {
				continue
			}
			child := childSet(e, v, nPat, down, up)
			if first {
				copy(out, child)
				first = false
				continue
			}
			buf = child
		}
		for p := 0; p < nPat; p++ {
			if inter := out[p] & buf[p]; inter != 0 {
				out[p] = inter
			} else {
				out[p] |= buf[p]
			}
		}
	}
	// Memoised recursion: compute each directed set once, children first.
	var compute func(v *tree.Node, via *tree.Edge)
	compute = func(v *tree.Node, via *tree.Edge) {
		k := 2 * via.Index
		out := up[via.Index*nPat : (via.Index+1)*nPat]
		if via.N[0] == v {
			k++
			out = down[via.Index*nPat : (via.Index+1)*nPat]
		}
		if done[k] {
			return
		}
		// Ensure children are computed first.
		if !v.IsTip() {
			for _, e := range v.Adj {
				if e != via {
					compute(e.Other(v), e)
				}
			}
		}
		fill(v, via, out)
		done[k] = true
	}
	for _, e := range t.Edges {
		compute(e.N[0], e)
		compute(e.N[1], e)
	}
	return down, up
}

// childSet fetches the already-computed directed set for the subtree
// containing e.Other(parent) behind edge e.
func childSet(e *tree.Edge, parent *tree.Node, nPat int, down, up []bio.StateMask) []bio.StateMask {
	if e.N[0] == parent {
		// Subtree behind N[1].
		return up[e.Index*nPat : (e.Index+1)*nPat]
	}
	return down[e.Index*nPat : (e.Index+1)*nPat]
}
