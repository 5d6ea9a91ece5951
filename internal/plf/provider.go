// Package plf implements the Phylogenetic Likelihood Function: ancestral
// probability vectors computed by Felsenstein's pruning algorithm over
// an unrooted binary tree, per-site scaling, log-likelihood evaluation
// at any branch, and analytic first and second branch-length derivatives
// via eigen-basis sum tables (the machinery behind Newton-Raphson branch
// optimisation).
//
// All ancestral-vector storage is reached through the VectorProvider
// interface — the Go analogue of the paper's getxvector() function — so
// the same engine runs unchanged against plain RAM (InMemoryProvider),
// the out-of-core slot manager (package ooc) or the simulated demand
// paging baseline (package vm). This transparency is the paper's central
// design claim (§3.2-3.3).
package plf

import "fmt"

// VectorProvider supplies storage for ancestral probability vectors,
// addressed by vector index 0..NumVectors()-1 (vector index = inner node
// index - number of tips).
//
// Vector returns the vector's payload. If write is true the caller
// promises to overwrite the entire vector before the next access, so an
// out-of-core implementation may skip reading its current contents from
// the backing store ("read skipping", paper §3.4). pinned lists vector
// indices that must not be evicted while this call is serviced: during a
// Felsenstein step for node p with children j and k, the vectors of j
// and k are pinned when fetching p and vice versa (paper §3.3).
//
// The returned slice remains valid until any subsequent Vector call
// whose index differs — exactly the lifetime a single pruning step or
// evaluation needs under the m >= 3 slot minimum. A write-intent slice
// is VectorLen() long; a read slice may be shorter, the vector's record
// (package record): every entry the engine reads of it.
type VectorProvider interface {
	Vector(vi int, write bool, pinned ...int) ([]float64, error)
	// NumVectors returns how many vectors the provider holds.
	NumVectors() int
	// VectorLen returns the per-vector payload length in float64s.
	VectorLen() int
}

// InMemoryProvider keeps every ancestral vector in RAM — the standard
// RAxML storage layout the paper's out-of-core manager replaces. It is
// the n == m baseline.
type InMemoryProvider struct {
	vecs [][]float64
	lens int
}

// NewInMemoryProvider allocates numVectors vectors of vecLen float64s.
func NewInMemoryProvider(numVectors, vecLen int) *InMemoryProvider {
	p := &InMemoryProvider{lens: vecLen, vecs: make([][]float64, numVectors)}
	backing := make([]float64, numVectors*vecLen)
	for i := range p.vecs {
		p.vecs[i], backing = backing[:vecLen:vecLen], backing[vecLen:]
	}
	return p
}

// Vector implements VectorProvider; it never fails and ignores pins.
func (p *InMemoryProvider) Vector(vi int, write bool, pinned ...int) ([]float64, error) {
	if vi < 0 || vi >= len(p.vecs) {
		return nil, fmt.Errorf("plf: vector index %d out of range [0, %d)", vi, len(p.vecs))
	}
	return p.vecs[vi], nil
}

// NumVectors implements VectorProvider.
func (p *InMemoryProvider) NumVectors() int { return len(p.vecs) }

// VectorLen implements VectorProvider.
func (p *InMemoryProvider) VectorLen() int { return p.lens }
