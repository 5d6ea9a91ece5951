package plf

// compute holds the engine's kernel-side state: the active kernel set,
// the transition-matrix cache and all numeric scratch. An engine owns
// exactly one, built at construction; the kernels read the model's
// parameters (e.M) and the tip indicators (e.tipInd) directly.
type compute struct {
	kern   kernelSet
	pcache *pcache

	// Scratch buffers, reused across steps.
	pL, pR  []float64 // nCat × k² transition matrices (cache-off path)
	ptL     []float64 // nCat × k² transposed matrices (dna4's assembly)
	ptR     []float64
	tipSumL []float64 // nCat × nm × k (cache-off path)
	tipSumR []float64
	prodTT  []float64 // tip×tip mask-pair product table (lazily sized)
	sumTab  []float64 // nPat × nCat × k derivative sum table
	nv      nvArgs
	ev      evArgs
	sa      sumArgs

	// Pre-bound parallelFor bodies: building these closures once per
	// engine keeps the newview/evaluate/sum-table hot paths free of
	// per-call heap allocations (the closures would otherwise escape
	// into the worker pool's task channel on every call).
	nvBody func(lo, hi int)
	evBody func(lo, hi int)
	saBody func(lo, hi int)
	svBody func(lo, hi int)
	// svExp[c·k+s] = exp(λ_s·r_c·t) and svLR[c·k+s] = λ_s·r_c for the
	// branch length of the current sum-table value pass: nCat × k each,
	// filled by sumTableValues before it fans out and read-only to the
	// workers. Owning them here sizes them to the model (no state-count
	// ceiling) and fills them once per pass, not per pattern or per chunk.
	// svLnL says whether the pass needs the per-pattern log-likelihood
	// term (always under +I, whose derivative weights come from it).
	svExp, svLR []float64
	svLnL       bool
}

// newCompute builds the kernel-side half of an engine.
func newCompute(e *Engine) *compute {
	cs := &compute{}
	k2 := e.nStates * e.nStates
	cs.pL = make([]float64, e.nCat*k2)
	cs.pR = make([]float64, e.nCat*k2)
	cs.ptL = make([]float64, e.nCat*k2)
	cs.ptR = make([]float64, e.nCat*k2)
	cs.tipSumL = make([]float64, e.nCat*len(e.maskList)*e.nStates)
	cs.tipSumR = make([]float64, e.nCat*len(e.maskList)*e.nStates)
	cs.sumTab = make([]float64, e.nPat*e.nCat*e.nStates)
	cs.svExp = make([]float64, e.nCat*e.nStates)
	cs.svLR = make([]float64, e.nCat*e.nStates)
	cs.nvBody = func(lo, hi int) { cs.kern.newview(e, &cs.nv, lo, hi) }
	cs.evBody = func(lo, hi int) { cs.kern.evaluate(e, &cs.ev, lo, hi) }
	cs.saBody = func(lo, hi int) { cs.kern.sumTable(e, &cs.sa, lo, hi) }
	cs.svBody = func(lo, hi int) { sumTableTerms(e, lo, hi) }
	return cs
}
