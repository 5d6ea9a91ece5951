package plf

import (
	"math"
	"time"

	"oocphylo/internal/mathx"
	"oocphylo/internal/obs"
	"oocphylo/internal/tree"
)

// Branch-length optimisation via analytic derivatives.
//
// At a branch {p, q} of length t the per-pattern, per-category site
// likelihood is
//
//	f_ic(t) = Σ_s π_s · x_p[i,c,s] · (P(r_c·t) · x_q[i,c,·])_s .
//
// Substituting P = V·exp(Λrt)·V⁻¹ gives f_ic(t) = Σ_k A_ick · e^{λ_k·r_c·t}
// with the branch-independent sum table
//
//	A_ick = (Σ_s π_s·x_p[s]·V[s,k]) · (Σ_j V⁻¹[k,j]·x_q[j]) ,
//
// so once the table is built, branch optimisation needs no further
// vector accesses — which is why it touches only the two endpoint
// vectors, the access-locality property the paper leans on in §4.2.
// (RAxML's sumGAMMA/coreGTRGAMMA functions implement the same
// factorisation, at the same cost.)
//
// Cost of one pass (sumTableValues at one t): the nCat·k exponentials
// e^{λ_k·r_c·t} and rates λ_k·r_c depend on no pattern, so they are
// computed once into compute-owned tables before the pattern loop fans
// out; each pattern then costs nCat·k multiply-adds, two divisions and —
// only when the pass's lnL is consumed, or under +I — one logarithm.
// Newton iterations consume (d1, d2) alone and run derivative-only;
// OptimizeBranch's starting-point pass doubles as its first iteration.
// No result bit depends on any of this: the hoisted factors are the
// same float64 expressions evaluated once instead of nPat times, summed
// per pattern in one fixed order (categories outer, states inner), and
// deriv_test.go pins it against a per-pattern-exp oracle.

// buildSumTable fills the compute's sumTab for edge and records the
// combined scale counters in e.sumTabSc. Both endpoint vectors must be
// valid toward each other (call Traverse first).
func (e *Engine) buildSumTable(edge *tree.Edge) error {
	e.Stats.SumTables++
	e.eobs.sumTables.Inc()
	timed := e.eobs.on || e.span != nil
	var stStart time.Time
	if timed {
		stStart = time.Now()
	}
	a := &e.c.sa
	*a = sumArgs{nm: len(e.maskList)}
	p, q := edge.N[0], edge.N[1]
	a.cp, _ = e.classMap(p)
	a.cq, _ = e.classMap(q)
	a.tipP, a.tipQ = p.IsTip(), q.IsTip()
	var err error
	if !p.IsTip() {
		np := 0
		if !q.IsTip() {
			e.pinsL[0] = e.vi(q)
			np = 1
		}
		a.xp, err = e.prov.Vector(e.vi(p), false, e.pinsL[:np]...)
		if err != nil {
			return err
		}
	}
	if !q.IsTip() {
		np := 0
		if !p.IsTip() {
			e.pinsR[0] = e.vi(p)
			np = 1
		}
		a.xq, err = e.prov.Vector(e.vi(q), false, e.pinsR[:np]...)
		if err != nil {
			return err
		}
	}
	for i := range e.sumTabSc {
		e.sumTabSc[i] = 0
	}
	if !a.tipP {
		sc := e.scales[e.vi(p)]
		for i, c := range a.cp {
			e.sumTabSc[i] += sc[c]
		}
	}
	if !a.tipQ {
		sc := e.scales[e.vi(q)]
		for i, c := range a.cq {
			e.sumTabSc[i] += sc[c]
		}
	}

	e.parallelFor(e.nPat, e.c.saBody)
	if timed {
		dur := time.Since(stStart)
		e.eobs.sumTableLat.Observe(dur.Seconds())
		if e.span != nil {
			e.span.EmitChild("plf.sum_table", stStart, dur, obs.Attr{Key: "edge", Int: int64(edge.Index)})
		}
	}
	return nil
}

// sumTableValues returns (lnL, dlnL/dt, d²lnL/dt²) at branch length t
// from the current sum table. Workers fill per-pattern terms; the
// reduction is sequential in pattern order, so results are
// bit-identical for any worker count. With wantLnL false and no +I the
// pass skips the per-pattern logarithm and lnl comes back 0; d1 and d2
// are the same bits either way.
func (e *Engine) sumTableValues(t float64, wantLnL bool) (lnl, d1, d2 float64) {
	cs := e.c
	cs.svLnL = wantLnL || e.M.PInv > 0
	k := e.nStates
	if len(cs.svExp) != e.nCat*k || len(cs.svLR) != e.nCat*k {
		panic("plf: sum-table exponential tables not sized nCat×nStates")
	}
	for c, r := range e.M.Rates[:e.nCat] {
		for kk, ev := range e.M.Eval[:k] {
			lr := ev * r
			cs.svLR[c*k+kk] = lr
			cs.svExp[c*k+kk] = math.Exp(lr * t)
		}
	}
	e.parallelFor(e.nPat, cs.svBody)
	terms := e.siteBuf[:3*e.nPat]
	for i := 0; i < e.nPat; i++ {
		lnl += terms[3*i]
		d1 += terms[3*i+1]
		d2 += terms[3*i+2]
	}
	return lnl, d1, d2
}

// sumTableTerms fills the per-pattern (lnL, d1, d2) terms for patterns
// [lo, hi) from the pass's exponential tables — the parallelFor body of
// sumTableValues, pre-bound on the compute as svBody.
func sumTableTerms(e *Engine, lo, hi int) {
	cs := e.c
	ck := e.nCat * e.nStates
	catW := 1.0 / float64(e.nCat)
	terms := e.siteBuf
	ex, lrs := cs.svExp[:ck], cs.svLR[:ck]
	for i := lo; i < hi; i++ {
		tab := cs.sumTab[i*ck : (i+1)*ck]
		var f, fp, fpp float64
		for j, lr := range lrs {
			a := tab[j] * ex[j]
			f += a
			fp += a * lr
			fpp += a * lr * lr
		}
		f *= catW
		fp *= catW
		fpp *= catW
		if f < math.SmallestNonzeroFloat64 {
			f = math.SmallestNonzeroFloat64
		}
		w := e.weights[i]
		gp, gpp := fp/f, fpp/f
		// +I mixture: the invariant component is branch-length
		// independent, so derivatives pick up the Γ-component
		// posterior weight q (1 when the mixture is off).
		q, ln := 1.0, 0.0
		if cs.svLnL {
			lnGamma := math.Log(f) - float64(e.sumTabSc[i])*logScaleFactor
			q = gammaWeight(lnGamma, e.M.PInv, e.linv[i])
			ln = mixInvariant(lnGamma, e.M.PInv, e.linv[i])
		}
		terms[3*i] = w * ln
		terms[3*i+1] = w * q * gp
		terms[3*i+2] = w * (q*gpp - q*gp*q*gp)
	}
}

// prepareSumTable runs the traversal and builds the sum table for
// edge, healing corrupt endpoint reads the same way LogLikelihoodAt
// does: invalidate the corrupt node, re-plan, recompute.
func (e *Engine) prepareSumTable(edge *tree.Edge) error {
	budget := e.recoveryBudget()
	attempts := 0
	for {
		if err := e.Traverse(edge); err != nil {
			return err
		}
		err := e.buildSumTable(edge)
		if err == nil {
			return nil
		}
		if !e.recoverCorruption(err, &attempts, budget) {
			return err
		}
	}
}

// OptimizeBranch Newton-optimises the length of edge, leaving both
// endpoint vectors valid and the edge set to the best length found. It
// returns the log-likelihood at the optimised length. The optimum is
// clamped to [tree.MinBranchLength, tree.MaxBranchLength]; if Newton
// lands somewhere worse than the starting point (possible on plateaus)
// the original length is kept. The Newton objective is the engine's
// pre-bound fdfFn, so the whole call allocates nothing.
func (e *Engine) OptimizeBranch(edge *tree.Edge) (float64, error) {
	if err := e.prepareSumTable(edge); err != nil {
		return 0, err
	}
	t0 := edge.Length
	// The starting-point pass also yields the derivatives of Newton's
	// first iteration when the solver starts at t0 itself (t0 within the
	// bounds); fdfFn consumes them.
	var lnl0 float64
	lnl0, e.nrD1, e.nrD2 = e.sumTableValues(t0, true)
	e.nrT = t0
	t1, _ := mathx.Newton(e.fdfFn, t0, tree.MinBranchLength, tree.MaxBranchLength, 1e-8, 32)
	lnl1, _, _ := e.sumTableValues(t1, true)
	if lnl1 >= lnl0 {
		edge.Length = t1
		return lnl1, nil
	}
	return lnl0, nil
}

// EvaluateAtLength returns the log-likelihood that the current sum
// table predicts for the given branch length. Exposed for tests (it
// must agree with a fresh evaluation after setting the length).
func (e *Engine) EvaluateAtLength(edge *tree.Edge, t float64) (float64, error) {
	if err := e.prepareSumTable(edge); err != nil {
		return 0, err
	}
	lnl, _, _ := e.sumTableValues(t, true)
	return lnl, nil
}
