package plf

// compute holds every piece of engine state whose element type follows
// the compute precision: the active kernel set, the transition-matrix
// cache, the precision's scaling constants, converted model constants
// and all numeric scratch. An engine owns exactly one compute — c64 or
// c32 — and each entry point (newview, evaluate, buildSumTable,
// sumTableValues) dispatches on which is non-nil before running a
// generic body. The float64 instantiation aliases the model's own
// slices and performs the exact operation sequence the pre-generic
// engine did, so the refactor cannot move a single f64 result bit.
type compute[F Float] struct {
	kern   kernelSet[F]
	pcache *pcache[F]

	// Scaling constants for this precision (see precision.go). flush is
	// the store-side denormal flush threshold — zero (never fires) in
	// f64 mode.
	minLik   F
	scaleFac F
	flush    F
	logScale float64

	// Model constants in precision F, refreshed whenever the model's
	// version changes (aliased, not copied, for float64). tipInd is
	// engine-owned and fixed at construction.
	mver   uint64
	haveM  bool
	freqs  []F
	evec   []F
	ievec  []F
	tipInd []F

	// Scratch buffers, reused across steps (the former engine fields).
	pL, pR  []F // nCat × k² transition matrices (cache-off path)
	pTmp    []float64
	tipSumL []F // nCat × nm × k (cache-off path)
	tipSumR []F
	prodTT  []F // tip×tip mask-pair product table (lazily sized)
	sumTab  []F // nPat × nCat × k derivative sum table
	nv      nvArgs[F]
	ev      evArgs[F]
	sa      sumArgs[F]

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
	// filled by sumTableValuesF before it fans out and read-only to the
	// workers. Owning them here sizes them to the model (no state-count
	// ceiling) and fills them once per pass, not per pattern or per chunk.
	// svLnL says whether the pass needs the per-pattern log-likelihood
	// term (always under +I, whose derivative weights come from it).
	svExp, svLR []float64
	svLnL       bool
}

// newCompute builds the precision-typed half of an engine.
func newCompute[F Float](e *Engine) *compute[F] {
	cs := &compute[F]{}
	if isF64[F]() {
		cs.minLik = F(minLikelihood)
		cs.scaleFac = F(scaleFactor)
		cs.logScale = logScaleFactor
	} else {
		cs.minLik = F(minLikelihood32)
		cs.scaleFac = F(scaleFactor32)
		cs.flush = F(flushDenormal32)
		cs.logScale = logScaleFactor32
		// Staging buffer: the model emits float64 matrices; the f32 path
		// converts them once per cache miss.
		cs.pTmp = make([]float64, e.nCat*e.nStates*e.nStates)
	}
	k2 := e.nStates * e.nStates
	cs.pL = make([]F, e.nCat*k2)
	cs.pR = make([]F, e.nCat*k2)
	cs.tipSumL = make([]F, e.nCat*len(e.maskList)*e.nStates)
	cs.tipSumR = make([]F, e.nCat*len(e.maskList)*e.nStates)
	cs.sumTab = make([]F, e.nPat*e.nCat*e.nStates)
	cs.svExp = make([]float64, e.nCat*e.nStates)
	cs.svLR = make([]float64, e.nCat*e.nStates)
	cs.tipInd = asF[F](nil, e.tipInd)
	cs.nvBody = func(lo, hi int) { cs.kern.newview(e, cs, &cs.nv, lo, hi) }
	cs.evBody = func(lo, hi int) { cs.kern.evaluate(e, cs, &cs.ev, lo, hi) }
	cs.saBody = func(lo, hi int) { cs.kern.sumTable(e, cs, &cs.sa, lo, hi) }
	cs.svBody = func(lo, hi int) { sumTableTerms(e, cs, lo, hi) }
	return cs
}

// syncModel refreshes the converted model constants after a parameter
// change. Model mutations bump Version() (the same signal the P cache
// invalidates on), so the check is one uint64 compare per call.
func (cs *compute[F]) syncModel(e *Engine) {
	if v := e.M.Version(); !cs.haveM || cs.mver != v {
		cs.mver = v
		cs.haveM = true
		cs.freqs = asF(cs.freqs, e.M.Freqs)
		cs.evec = asF(cs.evec, e.M.Evec)
		cs.ievec = asF(cs.ievec, e.M.Ievec)
	}
}
