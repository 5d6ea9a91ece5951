// Package distance computes pairwise evolutionary distances between
// aligned sequences and reconstructs trees from them with the
// Neighbor-Joining algorithm of Saitou & Nei (1987, as corrected by
// Studier & Keppler 1988).
//
// NJ is the method the paper contrasts itself against in §2: previous
// external-memory phylogenetics targeted NJ's O(n²) distance matrix,
// whose access pattern (global minimum searches) is fundamentally
// different from the PLF's tree-induced vector accesses. Here NJ serves
// as the starting-tree builder for the ML search (a cheap, sensible
// alternative to random topologies) and as a self-contained
// reconstruction method in its own right.
package distance

import (
	"context"
	"fmt"
	"math"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// maxDistance caps pairwise estimates where the correction formula
// diverges (saturated pairs).
const maxDistance = 5.0

// Matrix is a symmetric pairwise distance matrix with taxon labels.
type Matrix struct {
	// Names holds the taxon labels in matrix order.
	Names []string
	// D is the row-major n×n distance matrix; D[i*n+j] == D[j*n+i],
	// zero diagonal.
	D []float64
}

// N returns the number of taxa.
func (m *Matrix) N() int { return len(m.Names) }

// At returns the distance between taxa i and j.
func (m *Matrix) At(i, j int) float64 { return m.D[i*m.N()+j] }

// set assigns symmetrically.
func (m *Matrix) set(i, j int, v float64) {
	n := m.N()
	m.D[i*n+j] = v
	m.D[j*n+i] = v
}

// Check validates symmetry, zero diagonal and finite non-negative
// entries.
func (m *Matrix) Check() error {
	n := m.N()
	if len(m.D) != n*n {
		return fmt.Errorf("distance: matrix is %d entries for %d taxa", len(m.D), n)
	}
	for i := 0; i < n; i++ {
		if m.D[i*n+i] != 0 {
			return fmt.Errorf("distance: nonzero diagonal at %d", i)
		}
		for j := i + 1; j < n; j++ {
			a, b := m.D[i*n+j], m.D[j*n+i]
			if a != b {
				return fmt.Errorf("distance: asymmetry at (%d,%d): %v vs %v", i, j, a, b)
			}
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("distance: invalid entry %v at (%d,%d)", a, i, j)
			}
		}
	}
	return nil
}

// JC computes Jukes-Cantor corrected distances: for observed mismatch
// fraction p over comparable (both-unambiguous) sites,
// d = -3/4·ln(1 - 4p/3). Saturated or incomparable pairs are capped at
// maxDistance. Works for DNA; for k-state data the generalised formula
// d = -(k-1)/k · ln(1 - k·p/(k-1)) is used. ctx is checked once per
// row, and a done ctx ends the computation with its error.
func JC(ctx context.Context, pats *bio.Patterns) (*Matrix, error) {
	n := pats.NumTaxa()
	if n < 2 {
		return nil, fmt.Errorf("distance: need at least 2 taxa, got %d", n)
	}
	k := float64(pats.Alphabet.States)
	m := &Matrix{Names: append([]string(nil), pats.Names...), D: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			var diff, comp float64
			for p, w := range pats.Weights {
				a, b := pats.Columns[i][p], pats.Columns[j][p]
				if pats.Alphabet.IsAmbiguous(a) || pats.Alphabet.IsAmbiguous(b) {
					continue
				}
				comp += float64(w)
				if a != b {
					diff += float64(w)
				}
			}
			d := maxDistance
			if comp > 0 {
				pHat := diff / comp
				arg := 1 - k/(k-1)*pHat
				if arg > 1e-12 {
					d = -(k - 1) / k * math.Log(arg)
					if d > maxDistance {
						d = maxDistance
					}
					if d < 0 {
						d = 0
					}
				}
			}
			m.set(i, j, d)
		}
	}
	return m, nil
}

// NeighborJoining reconstructs an unrooted binary tree from a distance
// matrix. Negative branch-length estimates (possible with NJ) are
// clamped to tree.MinBranchLength. For an additive (tree-metric) input
// the true topology is recovered exactly. It is cubic in the taxa;
// ctx is checked once per join, and a done ctx ends the reconstruction
// with its error.
func NeighborJoining(ctx context.Context, m *Matrix) (*tree.Tree, error) {
	if err := m.Check(); err != nil {
		return nil, err
	}
	n := m.N()
	switch n {
	case 2:
		return tree.NewPair(m.Names[0], m.Names[1], clampLen(m.At(0, 1))), nil
	case 3:
		// Solve the three-point formulas directly.
		a := (m.At(0, 1) + m.At(0, 2) - m.At(1, 2)) / 2
		b := (m.At(0, 1) + m.At(1, 2) - m.At(0, 2)) / 2
		c := (m.At(0, 2) + m.At(1, 2) - m.At(0, 1)) / 2
		return tree.NewTriplet(
			[3]string{m.Names[0], m.Names[1], m.Names[2]},
			[3]float64{clampLen(a), clampLen(b), clampLen(c)}), nil
	}

	// Working copies: cluster list and distance matrix shrink as pairs
	// join. Each active cluster carries the Newick fragment of its
	// rooted subtree (built bottom-up, emitted at the end).
	type cluster struct {
		frag string // Newick fragment without trailing length
	}
	act := make([]cluster, n)
	for i := range act {
		act[i] = cluster{frag: quote(m.Names[i])}
	}
	d := append([]float64(nil), m.D...)
	idx := make([]int, n) // active positions into d's original indexing
	for i := range idx {
		idx[i] = i
	}
	dist := func(a, b int) float64 { return d[idx[a]*n+idx[b]] }
	setDist := func(a, b int, v float64) {
		d[idx[a]*n+idx[b]] = v
		d[idx[b]*n+idx[a]] = v
	}

	r := len(act)
	for r > 3 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Row sums.
		sums := make([]float64, r)
		for a := 0; a < r; a++ {
			s := 0.0
			for b := 0; b < r; b++ {
				if a != b {
					s += dist(a, b)
				}
			}
			sums[a] = s
		}
		// Minimise Q(a,b) = (r-2)·d(a,b) - sum(a) - sum(b).
		bi, bj, bq := -1, -1, math.Inf(1)
		for a := 0; a < r; a++ {
			for b := a + 1; b < r; b++ {
				q := float64(r-2)*dist(a, b) - sums[a] - sums[b]
				if q < bq {
					bi, bj, bq = a, b, q
				}
			}
		}
		// Branch lengths to the new internal node.
		dij := dist(bi, bj)
		la := dij/2 + (sums[bi]-sums[bj])/(2*float64(r-2))
		lb := dij - la
		la, lb = clampLen(la), clampLen(lb)
		// Distances from the new node u to every other cluster.
		newFrag := "(" + act[bi].frag + ":" + ftoa(la) + "," + act[bj].frag + ":" + ftoa(lb) + ")"
		for c := 0; c < r; c++ {
			if c == bi || c == bj {
				continue
			}
			duc := (dist(bi, c) + dist(bj, c) - dij) / 2
			if duc < 0 {
				duc = 0
			}
			setDist(bi, c, duc)
		}
		act[bi] = cluster{frag: newFrag}
		// Remove bj by swapping with the last active slot.
		act[bj] = act[r-1]
		idx[bj] = idx[r-1]
		r--
		act = act[:r]
		idx = idx[:r]
	}

	// Final three clusters join at the last internal node.
	l0 := (dist(0, 1) + dist(0, 2) - dist(1, 2)) / 2
	l1 := (dist(0, 1) + dist(1, 2) - dist(0, 2)) / 2
	l2 := (dist(0, 2) + dist(1, 2) - dist(0, 1)) / 2
	newick := "(" + act[0].frag + ":" + ftoa(clampLen(l0)) +
		"," + act[1].frag + ":" + ftoa(clampLen(l1)) +
		"," + act[2].frag + ":" + ftoa(clampLen(l2)) + ");"
	return tree.ParseNewick(newick)
}

func clampLen(v float64) float64 {
	if v < tree.MinBranchLength || math.IsNaN(v) {
		return tree.MinBranchLength
	}
	return v
}

func ftoa(v float64) string { return fmt.Sprintf("%g", v) }

func quote(name string) string {
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '(', ')', ':', ';', ',', ' ', '\t':
			return "'" + name + "'"
		}
	}
	return name
}

// NJTree is the one-call convenience: JC distances then NJ.
func NJTree(ctx context.Context, pats *bio.Patterns) (*tree.Tree, error) {
	m, err := JC(ctx, pats)
	if err != nil {
		return nil, err
	}
	return NeighborJoining(ctx, m)
}
