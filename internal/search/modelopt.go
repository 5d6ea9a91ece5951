package search

import (
	"errors"
	"math"

	"oocphylo/internal/mathx"
)

// GTR exchangeability optimisation: coordinate-wise Brent over the free
// rates (the last exchangeability is fixed at 1 as the identifiability
// anchor, RAxML's convention). Every trial rebuilds the rate-matrix
// eigendecomposition and requires a full tree traversal — together with
// the Γ-shape optimisation this is exactly the model-optimisation
// workload the paper's Figure 5 full traversals stand in for.

// exchBounds clamp individual exchangeabilities during optimisation.
const (
	exchMin = 1e-3
	exchMax = 1e3
)

// OptimizePInv Brent-optimises the proportion of invariant sites in
// [0, 0.99]. The invariant component needs no ancestral vectors, so
// after one traversal every trial is a pure re-evaluation — the
// cheapest model parameter in the whole likelihood.
func (s *Searcher) OptimizePInv() (float64, float64, error) {
	e := s.E
	m := e.M
	edge := e.T.Edges[0]
	if err := e.Traverse(edge); err != nil {
		return 0, 0, err
	}
	var evalErr error
	neg := func(p float64) float64 {
		if err := m.SetInvariant(p); err != nil {
			evalErr = err
			return math.Inf(1)
		}
		lnl, err := e.LogLikelihoodAt(edge)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return -lnl
	}
	incumbent := m.PInv
	lnl0 := -neg(incumbent)
	best, negLnl, err := mathx.Brent(neg, 0, 0.99, 1e-5, 60)
	if err != nil {
		return 0, 0, err
	}
	if evalErr != nil {
		return 0, 0, evalErr
	}
	if -negLnl < lnl0 {
		best = incumbent
	}
	if err := m.SetInvariant(best); err != nil {
		return 0, 0, err
	}
	lnl, err := e.LogLikelihoodAt(edge)
	if err != nil {
		return 0, 0, err
	}
	return best, lnl, nil
}

// OptimizeExchangeabilities coordinate-optimises the model's GTR rates,
// running up to `sweeps` passes over the free parameters or stopping
// when a full pass improves the log-likelihood by less than eps. It
// returns the final rates and log-likelihood. The engine's model is
// updated in place.
func (s *Searcher) OptimizeExchangeabilities(sweeps int, eps float64) ([]float64, float64, error) {
	m := s.E.M
	if m.Exch == nil {
		return nil, 0, errors.New("search: model has no exchangeability parameterisation")
	}
	if sweeps <= 0 {
		sweeps = 3
	}
	if eps <= 0 {
		eps = 0.1
	}
	exch := append([]float64(nil), m.Exch...)
	nFree := len(exch) - 1 // last rate anchored at 1

	// Normalise the anchor to 1 up front.
	if exch[len(exch)-1] != 1 {
		anchor := exch[len(exch)-1]
		for i := range exch {
			exch[i] /= anchor
		}
		if err := m.SetExchangeabilities(exch); err != nil {
			return nil, 0, err
		}
	}

	cur, err := s.E.LogLikelihood()
	if err != nil {
		return nil, 0, err
	}
	apply := func(i int, v float64) (float64, error) {
		exch[i] = v
		if err := m.SetExchangeabilities(exch); err != nil {
			return 0, err
		}
		return s.E.LogLikelihood()
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		before := cur
		for i := 0; i < nFree; i++ {
			old := exch[i]
			var evalErr error
			neg := func(v float64) float64 {
				lnl, err := apply(i, v)
				if err != nil {
					evalErr = err
					return math.Inf(1)
				}
				return -lnl
			}
			// Bracket around the current value in log space.
			lo := math.Max(exchMin, old/16)
			hi := math.Min(exchMax, old*16)
			best, negLnl, err := mathx.Brent(neg, lo, hi, 1e-3, 40)
			if err != nil {
				return nil, 0, err
			}
			if evalErr != nil {
				return nil, 0, evalErr
			}
			if -negLnl >= cur {
				cur = -negLnl
				if _, err := apply(i, best); err != nil {
					return nil, 0, err
				}
			} else {
				// Brent landed worse than the incumbent (flat surface):
				// restore.
				if _, err := apply(i, old); err != nil {
					return nil, 0, err
				}
			}
		}
		if cur-before < eps {
			break
		}
	}
	// Leave the engine evaluated at the final parameters.
	final, err := s.E.LogLikelihood()
	if err != nil {
		return nil, 0, err
	}
	return append([]float64(nil), m.Exch...), final, nil
}
