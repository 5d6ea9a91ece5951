// Package search implements a RAxML-style Maximum-Likelihood tree
// search on top of the plf engine: iterated branch-length smoothing
// (Newton-Raphson per branch), lazy subtree-pruning-regrafting with a
// bounded rearrangement radius (RAxML's "Lazy SPR", re-optimising only
// the insertion branch per candidate and the three affected branches on
// acceptance), and Γ-shape optimisation by Brent's method.
//
// The search is deterministic given the starting tree — the property
// the paper uses as its correctness criterion (§4.1): under any
// replacement strategy and any memory fraction f, the out-of-core runs
// must return exactly the tree and log-likelihood of the standard run.
//
// The package is also the workload generator for the paper's Figures
// 2-4: its access pattern (branch smoothing hammering two vectors,
// lazy SPR touching small neighborhoods) is what produces the low miss
// rates the paper reports (§4.2).
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"oocphylo/internal/mathx"
	"oocphylo/internal/plf"
	"oocphylo/internal/tree"
)

// Options tunes the search.
type Options struct {
	// SPRRadius bounds the regraft scan around each pruning site in
	// node-distance (RAxML's rearrangement setting). Default 5.
	SPRRadius int
	// MaxRounds caps the number of SPR improvement rounds. Default 10.
	MaxRounds int
	// Epsilon is the minimum log-likelihood gain that counts as an
	// improvement. Default 0.01.
	Epsilon float64
	// SmoothPasses caps the branch-length smoothing sweeps per call.
	// Default 4.
	SmoothPasses int
	// OptimizeModel also optimises the Γ shape parameter between rounds
	// (requires the engine's model to have >= 2 rate categories).
	OptimizeModel bool
	// RoundCallback, when non-nil, runs after every completed SPR round
	// with the resumable search position (checkpointing hook). A
	// returned error aborts the search.
	RoundCallback func(p Progress) error
	// Resume, when non-nil, continues a previous search from the given
	// round-boundary position instead of starting fresh: the initial
	// branch smoothing and Γ optimisation are skipped (they already
	// happened before the checkpoint, and re-running them would perturb
	// branch lengths and diverge from the original trajectory), and the
	// round loop starts at Resume.Round. Given the tree, model and
	// vector state captured at the same boundary, the resumed run's
	// final tree and log-likelihood are bit-identical to an
	// uninterrupted run's.
	Resume *Progress
}

// Progress is a resumable snapshot of the search position at a safe
// boundary. Round counts completed SPR rounds in absolute terms
// (carried across resumes), so a Progress can be fed back through
// Options.Resume.
type Progress struct {
	// Round is the number of completed SPR rounds; a resumed search
	// starts its round loop here.
	Round int
	// LnL is the log-likelihood at the boundary.
	LnL float64
	// StartLnL is Result.StartLnL of the original (pre-resume) run.
	StartLnL float64
	// Alpha is the last optimised Γ shape, 0 when never optimised.
	Alpha float64
	// LastImproved is the last round whose SPR sweep improved the
	// likelihood by at least Epsilon.
	LastImproved int
	// MovesApplied and MovesTested are cumulative across resumes.
	MovesApplied, MovesTested int
}

// Interrupted reports a search stopped by its context at a safe
// boundary: the tree is structurally consistent (no pruned subtree is
// dangling) and Progress describes the position the caller may
// checkpoint. It wraps the context's error, so
// errors.Is(err, context.Canceled) still matches.
type Interrupted struct {
	// Progress is the resumable position at the abort boundary. A
	// mid-round abort reports the current round as not yet completed:
	// resuming re-runs that round's sweep over the partially improved
	// tree (sound, though not bit-identical to an uninterrupted run —
	// only round-boundary checkpoints are).
	Progress Progress
	err      error
}

// Error implements error.
func (e *Interrupted) Error() string {
	return fmt.Sprintf("search: interrupted at round %d (lnl %.6f): %v",
		e.Progress.Round, e.Progress.LnL, e.err)
}

// Unwrap exposes the underlying context error.
func (e *Interrupted) Unwrap() error { return e.err }

func (o *Options) fill() {
	if o.SPRRadius <= 0 {
		o.SPRRadius = 5
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.SmoothPasses <= 0 {
		o.SmoothPasses = 4
	}
}

// Result reports what the search did.
type Result struct {
	// LnL is the final log-likelihood.
	LnL float64
	// StartLnL is the log-likelihood of the starting tree after initial
	// branch smoothing.
	StartLnL float64
	// Rounds is the number of SPR rounds executed.
	Rounds int
	// AcceptedMoves counts applied SPR rearrangements.
	AcceptedMoves int
	// TestedMoves counts evaluated candidate insertions.
	TestedMoves int
	// Alpha is the final Γ shape (NaN when not optimised).
	Alpha float64
	// Final is the resumable position at normal completion. Feeding it
	// back through Options.Resume runs no sweep when the search ended
	// on a non-improving round (Round > LastImproved) and returns the
	// identical tree and likelihood, so a completion checkpoint is as
	// trustworthy as a round-boundary one.
	Final Progress
}

// Searcher drives an ML search over one engine.
type Searcher struct {
	E    *plf.Engine
	Opts Options
	// sobs holds the observability instruments (see obs.go); the zero
	// value means uninstrumented.
	sobs searchObs
}

// New returns a Searcher with filled-in defaults.
func New(e *plf.Engine, opts Options) *Searcher {
	opts.fill()
	return &Searcher{E: e, Opts: opts}
}

// SmoothBranches optimises every branch length, repeating up to passes
// sweeps or until a sweep improves the log-likelihood by less than eps.
// Branches are visited in canonical depth-first order, like RAxML's
// smoothTree: consecutive branches share a node, so each partial
// traversal touches only a couple of vectors — the access locality the
// paper's miss rates depend on (§4.2). The order (and the evaluation
// anchor) is canonical rather than index-based so a resumed run smooths
// in exactly the sequence the uninterrupted run would have. Returns
// the final lnL.
func (s *Searcher) SmoothBranches(passes int, eps float64) (float64, error) {
	t := s.E.T
	order, _ := canonicalOrder(t)
	lnl, err := s.E.LogLikelihoodAt(order[0])
	if err != nil {
		return 0, err
	}
	for pass := 0; pass < passes; pass++ {
		before := lnl
		for _, e := range order {
			lnl, err = s.E.OptimizeBranch(e)
			if err != nil {
				return 0, err
			}
		}
		if lnl-before < eps {
			break
		}
	}
	return lnl, nil
}

// OptimizeAlpha Brent-optimises the Γ shape parameter in [0.02, 100].
// Every trial re-discretises the rates and requires a full traversal —
// the paper's §4.3 rationale for its full-traversal benchmark workload.
func (s *Searcher) OptimizeAlpha() (float64, float64, error) {
	m := s.E.M
	if m.Cats() < 2 {
		return 0, 0, errors.New("search: alpha optimisation needs >= 2 rate categories")
	}
	ncat := m.Cats()
	// The canonical anchor keeps every trial evaluation bit-identical
	// between an uninterrupted run and one resumed from a checkpoint
	// (Edges[0] names a different branch in a re-parsed tree).
	at := anchorEdge(s.E.T)
	eval := func(alpha float64) float64 {
		if err := m.SetGamma(alpha, ncat); err != nil {
			return math.Inf(1)
		}
		lnl, err := s.E.LogLikelihoodAt(at)
		if err != nil {
			return math.Inf(1)
		}
		return -lnl
	}
	start := m.Alpha
	if math.IsInf(start, 0) || start <= 0 {
		start = 1
	}
	alpha, neg, err := mathx.Brent(eval, 0.02, 100, 1e-4, 60)
	if err != nil {
		return 0, 0, err
	}
	// Leave the model at the optimum.
	if err := m.SetGamma(alpha, ncat); err != nil {
		return 0, 0, err
	}
	if _, err := s.E.LogLikelihoodAt(at); err != nil {
		return 0, 0, err
	}
	return alpha, -neg, nil
}

// Run executes the full hill climb: initial smoothing, then SPR rounds
// until no move improves by Epsilon or MaxRounds is hit.
func (s *Searcher) Run() (*Result, error) { return s.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation: once ctx is cancelled
// the search stops at the next safe boundary (a round start, or a
// junction boundary inside a sweep — points where the tree is
// structurally consistent) and returns the partial Result together
// with an *Interrupted error carrying the resumable Progress. The
// engine should not carry its own context when interrupt-and-
// checkpoint matters: an engine-level abort can fire mid-surgery,
// where the tree is not in a checkpointable state.
func (s *Searcher) RunCtx(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Alpha: math.NaN()}
	// Canonical layout at every boundary: a resumed run re-parses its
	// tree, and parse order differs from the mutation history an
	// uninterrupted run carries. Likelihood evaluation is endpoint-slot-
	// sensitive in floating point, so both runs must re-converge to one
	// representation here and at each round top for resumes to be
	// bit-identical.
	tree.Canonicalize(s.E.T)
	var lnl float64
	startRound, lastImproved := 0, 0
	if r := s.Opts.Resume; r != nil {
		startRound = r.Round
		lastImproved = r.LastImproved
		lnl = r.LnL
		res.StartLnL = r.StartLnL
		res.AcceptedMoves = r.MovesApplied
		res.TestedMoves = r.MovesTested
		if r.Alpha != 0 {
			res.Alpha = r.Alpha
		}
		s.sobs.lnl.Set(lnl)
	} else {
		var err error
		lnl, err = s.SmoothBranches(s.Opts.SmoothPasses, s.Opts.Epsilon)
		if err != nil {
			return nil, err
		}
		res.StartLnL = lnl
		s.sobs.lnl.Set(lnl)
		if s.Opts.OptimizeModel && s.E.M.Cats() >= 2 {
			alpha, l, err := s.OptimizeAlpha()
			if err != nil {
				return nil, err
			}
			res.Alpha = alpha
			lnl = l
		}
	}
	completed := startRound
	// A round runs only after an improving one: a position whose last
	// round improved nothing, a converged search's Final, runs none.
	for round := startRound; round < s.Opts.MaxRounds && round <= lastImproved; round++ {
		if err := ctx.Err(); err != nil {
			res.LnL = lnl
			return res, &Interrupted{Progress: s.progress(res, round, lnl, lastImproved), err: err}
		}
		tree.Canonicalize(s.E.T)
		res.Rounds++
		var roundStart time.Time
		testedBefore := res.TestedMoves
		if s.timed() {
			roundStart = time.Now()
		}
		improved, newLnl, err := s.sprRound(ctx, lnl, res)
		if err != nil {
			res.LnL = newLnl
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// A junction-boundary abort: the current round is not
				// complete, so the resumable position names it as the
				// round to re-run.
				return res, &Interrupted{Progress: s.progress(res, round, newLnl, lastImproved), err: err}
			}
			return res, err
		}
		lnl = newLnl
		completed = round + 1
		s.noteRound(res.Rounds, res, lnl, roundStart, testedBefore)
		if !improved {
			break
		}
		lastImproved = round + 1
		lnl, err = s.SmoothBranches(s.Opts.SmoothPasses, s.Opts.Epsilon)
		if err != nil {
			res.LnL = lnl
			return res, err
		}
		if s.Opts.OptimizeModel && s.E.M.Cats() >= 2 {
			alpha, l, err := s.OptimizeAlpha()
			if err != nil {
				res.LnL = lnl
				return res, err
			}
			res.Alpha = alpha
			if l > lnl {
				lnl = l
			}
		}
		if s.Opts.RoundCallback != nil {
			if err := s.Opts.RoundCallback(s.progress(res, round+1, lnl, lastImproved)); err != nil {
				res.LnL = lnl
				return res, err
			}
		}
		s.sobs.lnl.Set(lnl)
	}
	res.LnL = lnl
	res.Final = s.progress(res, completed, lnl, lastImproved)
	s.sobs.lnl.Set(lnl)
	return res, nil
}

// progress assembles the resumable position for round boundaries and
// interrupts. round is the absolute count of completed rounds.
func (s *Searcher) progress(res *Result, round int, lnl float64, lastImproved int) Progress {
	alpha := res.Alpha
	if math.IsNaN(alpha) {
		alpha = 0
	}
	return Progress{
		Round:        round,
		LnL:          lnl,
		StartLnL:     res.StartLnL,
		Alpha:        alpha,
		LastImproved: lastImproved,
		MovesApplied: res.AcceptedMoves,
		MovesTested:  res.TestedMoves,
	}
}

// sprRound tries to improve the tree by one sweep of lazy SPR moves
// over every (junction, subtree) pair, applying each improving move
// immediately (greedy, RAxML-style). Cancellation is honoured between
// junctions — the points inside a sweep where the tree is whole — and
// returns the likelihood of the partially improved tree.
func (s *Searcher) sprRound(ctx context.Context, lnl float64, res *Result) (bool, float64, error) {
	t := s.E.T
	improvedAny := false
	// Junctions are visited in canonical order — a function of topology
	// and tip names only, so an uninterrupted run and a checkpoint-
	// resumed run sweep in the same sequence. The junction list is fixed
	// at sweep start (applied moves do not add or remove junctions);
	// neighbor order is re-derived per junction because applied moves do
	// change it, identically in every run that reached the same tree.
	_, junctions := canonicalOrder(t)
	for _, u := range junctions {
		if err := ctx.Err(); err != nil {
			return improvedAny, lnl, fmt.Errorf("search: sweep interrupted: %w", err)
		}
		for side := 0; side < 3; side++ {
			// Fresh lookup each iteration: an applied move changes u's
			// neighbor set, and the canonical order tracks the current
			// tree (identically in every run that reached it).
			v := tree.CanonicalAdj(t, u)[side].Other(u)
			better, newLnl, err := s.tryMoveSubtree(u, v, lnl)
			if err != nil {
				return improvedAny, lnl, err
			}
			res.TestedMoves += better.tested
			if better.applied {
				res.AcceptedMoves++
				improvedAny = true
				lnl = newLnl
			}
		}
	}
	return improvedAny, lnl, nil
}

type moveOutcome struct {
	applied bool
	tested  int
}

// tryMoveSubtree prunes the subtree hanging from junction u via v,
// scans insertion branches within the radius, and either applies the
// best improving insertion or restores the original topology.
//
// Vector validity follows the engine's SPR rule (see plf.Engine
// Invalidate): traverse to the edit site, prune, invalidate, mark,
// then roll back to the mark when the move concludes.
func (s *Searcher) tryMoveSubtree(u, v *tree.Node, lnl float64) (moveOutcome, float64, error) {
	var out moveOutcome
	e := s.E
	t := e.T
	pendant := u.EdgeTo(v)
	if pendant == nil {
		return out, lnl, fmt.Errorf("search: %d and %d not adjacent", u.Index, v.Index)
	}
	// Point all valid vectors at the edit site.
	if err := e.Traverse(pendant); err != nil {
		return out, lnl, err
	}
	p, err := tree.PruneSubtree(t, u, v)
	if err != nil {
		return out, lnl, err
	}
	merged := p.MergedEdge()
	e.Invalidate(u, merged.N[0], merged.N[1])
	e.MarkOrientation()

	pendLen := pendant.Length
	candidates := tree.EdgesWithinRadius(t, merged, s.Opts.SPRRadius)

	bestLnl := lnl
	var bestEdge *tree.Edge
	for _, g := range candidates {
		if g == merged {
			continue // re-creates the original topology
		}
		gx, gy := g.N[0], g.N[1]
		if err := p.Regraft(g); err != nil {
			return out, lnl, err
		}
		e.Invalidate(u, gx, gy)
		out.tested++
		// Lazy evaluation: optimise only the insertion (pendant) branch.
		trial, err := e.OptimizeBranch(pendant)
		if err != nil {
			return out, lnl, err
		}
		if trial > bestLnl {
			bestLnl = trial
			bestEdge = g
		}
		pendant.Length = pendLen
		if err := p.Ungraft(); err != nil {
			return out, lnl, err
		}
		e.Invalidate(u, gx, gy)
	}

	if bestEdge == nil || bestLnl < lnl+s.Opts.Epsilon {
		// No improvement: restore and leave.
		if err := p.Restore(); err != nil {
			return out, lnl, err
		}
		e.InvalidateChangedSinceMark()
		e.Invalidate(u, merged.N[0], merged.N[1])
		return out, lnl, nil
	}

	// Apply the best move permanently and polish the three branches at
	// the insertion point.
	bx, by := bestEdge.N[0], bestEdge.N[1]
	if err := p.Regraft(bestEdge); err != nil {
		return out, lnl, err
	}
	e.InvalidateChangedSinceMark()
	e.Invalidate(u, bx, by)
	newLnl := bestLnl
	// The polish is a sequential coordinate ascent over u's three
	// branches: canonical order, or a resumed run polishes in a
	// different sequence and lands on different branch lengths.
	for _, adj := range tree.CanonicalAdj(t, u) {
		newLnl, err = e.OptimizeBranch(adj)
		if err != nil {
			return out, lnl, err
		}
	}
	out.applied = true
	return out, newLnl, nil
}
