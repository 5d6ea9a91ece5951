package plf

// Degraded-mode planning. Any inner vector is a pure function of its
// children (the same identity the corruption-recovery path exploits),
// so the engine may trade a fetch for a recompute without changing a
// single bit of the result — only the work moves from the network to
// the CPU.
//
// When the provider reports Degraded() — the remote tier's circuit
// breaker is open — every remote read WILL fail. After
// AppendEdgeTraversal emits the minimal step list, every vector the plan would *read* (a
// valid inner child not recomputed by the plan, or one of the
// evaluation edge's own endpoints) that the provider's FetchCost oracle
// flags as remote is invalidated and recomputed, cascading down until
// the plan grounds out in tips and locally served vectors. A
// breaker-open store degrades every run that sits on top of it; there
// is no opt-in.

import (
	"time"

	"oocphylo/internal/tree"
)

// fetchCoster is the structural interface a provider (or the store
// below it) implements to say which vectors would need a remote trip.
// ooc.Manager forwards it to the backing store. Only the bool is
// consulted; the duration is always zero.
type fetchCoster interface {
	FetchCost(vi int) (time.Duration, bool)
}

// degrader is the structural interface a provider implements to report
// its remote tier unavailable (circuit breaker open). ooc.Manager
// forwards it to the backing store.
type degrader interface {
	Degraded() bool
}

// planTraversal builds the minimal plan for edge into the engine's plan
// buffer (valid until the next call) and, while the provider is
// degraded, converts its remote reads into recomputes.
func (e *Engine) planTraversal(edge *tree.Edge) []tree.Step {
	e.plan = tree.AppendEdgeTraversal(e.plan[:0], edge, e.orient)
	steps := e.plan
	fc, ok := e.prov.(fetchCoster)
	if !ok {
		return steps
	}
	if dg, ok := e.prov.(degrader); !ok || !dg.Degraded() {
		return steps
	}
	// Each conversion invalidates one node, and invalidated nodes join
	// the plan (never reconsidered), so the fixpoint is bounded by the
	// inner-node count: the cascade may walk a whole evicted subtree
	// down to its tips, still within that bound.
	for round := 0; round < e.T.NumInner(); round++ {
		changed := false
		inPlan := make(map[*tree.Node]bool, len(steps))
		for i := range steps {
			inPlan[steps[i].Node] = true
		}
		// The evaluation itself reads the two endpoint vectors, which
		// AppendEdgeTraversal leaves out of the plan when they are valid.
		// A valid-but-remote endpoint is just as unreadable while
		// degraded as any planned read — convert it too.
		for _, end := range []*tree.Node{edge.N[0], edge.N[1]} {
			if end.IsTip() || inPlan[end] || e.orient[end.Index] == nil {
				continue
			}
			if _, remote := fc.FetchCost(e.vi(end)); !remote {
				continue
			}
			e.orient[end.Index] = nil
			e.Stats.DegradedRecomputes++
			inPlan[end] = true
			changed = true
		}
		for i := range steps {
			for _, c := range []*tree.Node{steps[i].Left, steps[i].Right} {
				if c.IsTip() || inPlan[c] {
					continue
				}
				if _, remote := fc.FetchCost(e.vi(c)); !remote {
					continue
				}
				e.orient[c.Index] = nil
				e.Stats.DegradedRecomputes++
				inPlan[c] = true
				changed = true
			}
		}
		if !changed {
			break
		}
		e.plan = tree.AppendEdgeTraversal(e.plan[:0], edge, e.orient)
		steps = e.plan
	}
	return steps
}
