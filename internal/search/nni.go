package search

import (
	"math"

	"oocphylo/internal/tree"
)

// Nearest-neighbor-interchange hill climbing: a cheaper, more local
// companion to lazy SPR. Every internal edge admits two alternative
// topologies; each is evaluated with the interchange edge's length
// re-optimised, and improvements are applied greedily. NNI moves touch
// an even smaller vector neighborhood than SPR, so under the
// out-of-core manager they exhibit the strongest access locality of
// any rearrangement operator.

// NNIRound tries both interchanges across every internal edge once.
// It returns whether any move improved the likelihood by at least
// Epsilon, and the resulting likelihood.
func (s *Searcher) NNIRound(lnl float64) (bool, float64, error) {
	t := s.E.T
	improved := false
	// Collect internal edges up front; the set of internal edges is
	// stable under NNI (only endpoints' adjacencies change).
	var internal []*tree.Edge
	for _, e := range t.Edges {
		if !e.N[0].IsTip() && !e.N[1].IsTip() {
			internal = append(internal, e)
		}
	}
	for _, e := range internal {
		for variant := 0; variant < 2; variant++ {
			// Point all valid vectors at the edit site, then swap.
			if err := s.E.Traverse(e); err != nil {
				return false, 0, err
			}
			u, v := e.N[0], e.N[1]
			savedLen := e.Length
			undo, err := tree.NNI(t, e, variant, 0)
			if err != nil {
				return false, 0, err
			}
			s.E.Invalidate(u, v)
			trial, err := s.E.OptimizeBranch(e)
			if err != nil {
				return false, 0, err
			}
			if trial > lnl+s.Opts.Epsilon {
				lnl = trial
				improved = true
				continue // keep the move (and its optimised length)
			}
			undo()
			e.Length = savedLen
			s.E.Invalidate(u, v)
		}
	}
	return improved, lnl, nil
}

// RunNNI executes NNI rounds (with branch smoothing between rounds)
// until no move improves the likelihood or MaxRounds is reached.
func (s *Searcher) RunNNI() (*Result, error) {
	res := &Result{Alpha: math.NaN()}
	lnl, err := s.SmoothBranches(s.Opts.SmoothPasses, s.Opts.Epsilon)
	if err != nil {
		return nil, err
	}
	res.StartLnL = lnl
	for round := 0; round < s.Opts.MaxRounds; round++ {
		res.Rounds++
		improved, newLnl, err := s.NNIRound(lnl)
		if err != nil {
			return nil, err
		}
		lnl = newLnl
		if !improved {
			break
		}
		res.AcceptedMoves++ // at least one move this round
		lnl, err = s.SmoothBranches(s.Opts.SmoothPasses, s.Opts.Epsilon)
		if err != nil {
			return nil, err
		}
	}
	res.LnL = lnl
	return res, nil
}
