package plf

// Protein (k=20) kernels — "Throughput round 2". The generic loops
// compute each output state's matrix-vector sum in its own pass: one
// accumulation chain at a time, fully serialised through the floating-point add latency. These kernels keep
// every chain's operation sequence EXACTLY as the generic kernel runs
// it (zero-initialised accumulator, += terms in ascending j) but
// interleave four independent chains per pass (eight in the
// inner×inner case: four left + four right), so the CPU can overlap
// their add latencies. Interleaving independent chains reassociates
// nothing — each accumulator's value history is bit-for-bit the generic
// one — which is how the speedup coexists with the paper's §4.1
// exactness criterion. Array-pointer casts ((*[400]float64), (*[20]float64)) hoist
// the bounds checks the generic slice indexing pays per element.
//
// aaKernels hard-codes k=20 so the s/j trip counts are compile-time
// constants. The tip×tip case reuses the DNA set's mask-pair
// product-table trick, guarded by prodTTMaxEntries because nm² can be
// large for proteins.

// prodTTMaxEntries caps the tip×tip product table (elements, not
// bytes): C·nm²·k beyond this skips the table and computes each
// pattern's products directly — the same multiplies in the same order,
// just unamortised. 2²¹ elements is 16 MiB of float64, comfortably
// cache-resident territory's upper edge.
const prodTTMaxEntries = 1 << 21

// prepareProdTT builds the tip×tip mask-pair product table
// prod[((ml*nm+mr)*C+c)*k+s] = tsL[c,ml,s]·tsR[c,mr,s] into e.c.prodTT,
// or leaves a.prodTT nil when the table would exceed prodTTMaxEntries.
func prepareProdTT(e *Engine, a *nvArgs, k int) {
	if !a.tipL || !a.tipR {
		return
	}
	C, nm := e.nCat, a.nm
	stride := C * k
	need := nm * nm * stride
	if need > prodTTMaxEntries {
		return
	}
	if cap(e.c.prodTT) < need {
		e.c.prodTT = make([]float64, need)
	}
	prod := e.c.prodTT[:need]
	for ml := 0; ml < nm; ml++ {
		for mr := 0; mr < nm; mr++ {
			for c := 0; c < C; c++ {
				l := a.tsL[(c*nm+ml)*k:][:k]
				r := a.tsR[(c*nm+mr)*k:][:k]
				dst := prod[(ml*nm+mr)*stride+c*k:][:k]
				for s := 0; s < k; s++ {
					dst[s] = l[s] * r[s]
				}
			}
		}
	}
	a.prodTT = prod
}

// newviewTT handles the tip×tip newview case for any k: a table copy
// per pattern when prepareProdTT built the table, otherwise the direct
// per-pattern products (identical multiplies, identical order).
func newviewTT(e *Engine, a *nvArgs, k, lo, hi int) {
	C, nm := e.nCat, a.nm
	stride := C * k
	xp, scp := a.xp, a.scp
	cl, cr := a.cl, a.cr
	if prod := a.prodTT; prod != nil {
		for i := lo; i < hi; i++ {
			dst := xp[i*stride : i*stride+stride]
			pair := (int(cl[i])*nm + int(cr[i])) * stride
			copy(dst, prod[pair:pair+stride])
			blockMax := 0.0
			for _, v := range dst {
				if v > blockMax {
					blockMax = v
				}
			}
			scaleTail(dst, scp, i, 0, blockMax)
		}
		return
	}
	tsL, tsR := a.tsL, a.tsR
	for i := lo; i < hi; i++ {
		base := i * stride
		ml, mr := int(cl[i])*k, int(cr[i])*k
		blockMax := 0.0
		for c := 0; c < C; c++ {
			l := tsL[c*nm*k+ml:][:k]
			r := tsR[c*nm*k+mr:][:k]
			dst := xp[base+c*k:][:k]
			for s := 0; s < k; s++ {
				v := l[s] * r[s]
				dst[s] = v
				if v > blockMax {
					blockMax = v
				}
			}
		}
		scaleTail(xp[base:base+stride], scp, i, 0, blockMax)
	}
}

// ---------------------------------------------------------------------
// aaKernels: k = 20 hard-coded.

type aaKernels struct{}

func (aaKernels) name() string { return "aa20" }

func (aaKernels) prepareNewview(e *Engine, a *nvArgs) {
	prepareProdTT(e, a, 20)
}

func (aaKernels) newview(e *Engine, a *nvArgs, lo, hi int) {
	switch {
	case a.tipL && a.tipR:
		newviewTT(e, a, 20, lo, hi)
	case a.tipL:
		aaNewviewTI(e, a, a.cl, a.tsL, a.cr, a.xr, a.pmR, a.scr, lo, hi)
	case a.tipR:
		aaNewviewTI(e, a, a.cr, a.tsR, a.cl, a.xl, a.pmL, a.scl, lo, hi)
	default:
		aaNewviewII(e, a, lo, hi)
	}
}

// aaMatVecTip computes dst[s] = tb[s]·(P·src)[s] for one 20-state
// category block, four output states per pass. Each accumulator is a
// zero-initialised += chain over ascending j — the generic per-state
// accumulation verbatim — and tb·acc for the generic's acc·tb
// (right-tip case) is exact because IEEE multiplication is commutative.
func aaMatVecTip(p *[400]float64, src, tb, dst *[20]float64, blockMax float64) float64 {
	for s := 0; s < 20; s += 4 {
		r0 := p[s*20 : s*20+20]
		r1 := p[s*20+20 : s*20+40]
		r2 := p[s*20+40 : s*20+60]
		r3 := p[s*20+60 : s*20+80]
		var a0, a1, a2, a3 float64
		for j := 0; j < 20; j++ {
			xj := src[j]
			a0 += r0[j] * xj
			a1 += r1[j] * xj
			a2 += r2[j] * xj
			a3 += r3[j] * xj
		}
		v0 := tb[s] * a0
		dst[s] = v0
		if v0 > blockMax {
			blockMax = v0
		}
		v1 := tb[s+1] * a1
		dst[s+1] = v1
		if v1 > blockMax {
			blockMax = v1
		}
		v2 := tb[s+2] * a2
		dst[s+2] = v2
		if v2 > blockMax {
			blockMax = v2
		}
		v3 := tb[s+3] * a3
		dst[s+3] = v3
		if v3 > blockMax {
			blockMax = v3
		}
	}
	return blockMax
}

// aaNewviewTI: one tip child (mask codes tc + tip-sum table ts), one
// inner child (blocks xc of vector x across matrices pm, with scales
// sc).
func aaNewviewTI(e *Engine, a *nvArgs, tc []int32, ts []float64, xc []int32, x, pm []float64, sc []int32, lo, hi int) {
	C, nm := e.nCat, a.nm
	const k = 20
	stride := C * k
	xp, scp := a.xp, a.scp
	for i := lo; i < hi; i++ {
		base := i * stride
		xb := int(xc[i]) * stride
		mi := int(tc[i]) * k
		blockMax := 0.0
		for c := 0; c < C; c++ {
			o := c * k
			blockMax = aaMatVecTip(
				(*[400]float64)(pm[c*400:]),
				(*[20]float64)(x[xb+o:]),
				(*[20]float64)(ts[c*nm*k+mi:]),
				(*[20]float64)(xp[base+o:]),
				blockMax)
		}
		scaleTail(xp[base:base+stride], scp, i, sc[xc[i]], blockMax)
	}
}

// aaNewviewIICat computes one 20-state category block of the
// inner×inner case, interleaving eight accumulation chains (four left,
// four right) per pass.
func aaNewviewIICat(pl, pr *[400]float64, l, r, dst *[20]float64, blockMax float64) float64 {
	for s := 0; s < 20; s += 4 {
		pl0 := pl[s*20 : s*20+20]
		pl1 := pl[s*20+20 : s*20+40]
		pl2 := pl[s*20+40 : s*20+60]
		pl3 := pl[s*20+60 : s*20+80]
		pr0 := pr[s*20 : s*20+20]
		pr1 := pr[s*20+20 : s*20+40]
		pr2 := pr[s*20+40 : s*20+60]
		pr3 := pr[s*20+60 : s*20+80]
		var la0, la1, la2, la3, ra0, ra1, ra2, ra3 float64
		for j := 0; j < 20; j++ {
			lj := l[j]
			rj := r[j]
			la0 += pl0[j] * lj
			la1 += pl1[j] * lj
			la2 += pl2[j] * lj
			la3 += pl3[j] * lj
			ra0 += pr0[j] * rj
			ra1 += pr1[j] * rj
			ra2 += pr2[j] * rj
			ra3 += pr3[j] * rj
		}
		v0 := la0 * ra0
		dst[s] = v0
		if v0 > blockMax {
			blockMax = v0
		}
		v1 := la1 * ra1
		dst[s+1] = v1
		if v1 > blockMax {
			blockMax = v1
		}
		v2 := la2 * ra2
		dst[s+2] = v2
		if v2 > blockMax {
			blockMax = v2
		}
		v3 := la3 * ra3
		dst[s+3] = v3
		if v3 > blockMax {
			blockMax = v3
		}
	}
	return blockMax
}

// aaNewviewII: both children inner.
func aaNewviewII(e *Engine, a *nvArgs, lo, hi int) {
	C := e.nCat
	const k = 20
	stride := C * k
	xl, xr, xp := a.xl, a.xr, a.xp
	scl, scr, scp := a.scl, a.scr, a.scp
	cl, cr := a.cl, a.cr
	pmL, pmR := a.pmL, a.pmR
	for i := lo; i < hi; i++ {
		l, r := int(cl[i]), int(cr[i])
		base, lb, rb := i*stride, l*stride, r*stride
		blockMax := 0.0
		for c := 0; c < C; c++ {
			o := c * k
			blockMax = aaNewviewIICat(
				(*[400]float64)(pmL[c*400:]), (*[400]float64)(pmR[c*400:]),
				(*[20]float64)(xl[lb+o:]), (*[20]float64)(xr[rb+o:]), (*[20]float64)(xp[base+o:]),
				blockMax)
		}
		scaleTail(xp[base:base+stride], scp, i, scl[l]+scr[r], blockMax)
	}
}

// aaMatVec fills dst = P·src for one 20-state block (the evaluate
// kernel's right factor), four chains per pass.
func aaMatVec(p *[400]float64, src, dst *[20]float64) {
	for s := 0; s < 20; s += 4 {
		r0 := p[s*20 : s*20+20]
		r1 := p[s*20+20 : s*20+40]
		r2 := p[s*20+40 : s*20+60]
		r3 := p[s*20+60 : s*20+80]
		var a0, a1, a2, a3 float64
		for j := 0; j < 20; j++ {
			xj := src[j]
			a0 += r0[j] * xj
			a1 += r1[j] * xj
			a2 += r2[j] * xj
			a3 += r3[j] * xj
		}
		dst[s] = a0
		dst[s+1] = a1
		dst[s+2] = a2
		dst[s+3] = a3
	}
}

func (aaKernels) evaluate(e *Engine, a *evArgs, lo, hi int) {
	C, nm := e.nCat, a.nm
	const k = 20
	stride := C * k
	freqs := (*[20]float64)(e.M.Freqs)
	catW := 1 / float64(C)
	contrib := a.contrib
	var ra [20]float64
	for i := lo; i < hi; i++ {
		p, q := int(a.cp[i]), int(a.cq[i])
		var cnt int32
		if !a.tipP {
			cnt += a.scp[p]
		}
		if !a.tipQ {
			cnt += a.scq[q]
		}
		pb, qb := p*stride, q*stride
		site := 0.0
		for c := 0; c < C; c++ {
			o := c * k
			if a.tipQ {
				copy(ra[:], a.tsQ[c*nm*k+q*k:][:k])
			} else {
				aaMatVec((*[400]float64)(a.pmQ[c*400:]), (*[20]float64)(a.xq[qb+o:]), &ra)
			}
			// The site sum is ONE accumulation chain in the generic
			// kernel, so it stays a single sequential chain here — only
			// the independent matrix-vector chains above are interleaved.
			f := 0.0
			if a.tipP {
				ind := (*[20]float64)(e.tipInd[p*k:])
				for s := 0; s < k; s++ {
					f += freqs[s] * ind[s] * ra[s]
				}
			} else {
				src := (*[20]float64)(a.xp[pb+o:])
				for s := 0; s < k; s++ {
					f += freqs[s] * src[s] * ra[s]
				}
			}
			site += f
		}
		site *= catW
		contrib[i] = siteTerm(e, i, site, cnt)
	}
}

func (aaKernels) sumTable(e *Engine, a *sumArgs, lo, hi int) {
	C := e.nCat
	const k = 20
	stride := C * k
	freqs := (*[20]float64)(e.M.Freqs)
	ev := e.M.Evec
	iv := e.M.Ievec
	xp, xq := a.xp, a.xq
	cp, cq := a.cp, a.cq
	sumTab := e.c.sumTab
	var left [20]float64
	for i := lo; i < hi; i++ {
		p, q := int(cp[i]), int(cq[i])
		base, pb, qb := i*stride, p*stride, q*stride
		for c := 0; c < C; c++ {
			o := c * k
			var ls *[20]float64
			if a.tipP {
				ls = (*[20]float64)(e.tipInd[p*k:])
			} else {
				ls = (*[20]float64)(xp[pb+o:])
			}
			// left_k = sum_s pi_s x_p[s] V[s][k]: outer loop over s in
			// ascending order with the generic w == 0 skip; the inner
			// kk loop is unrolled four-wide over the SAME left[] chains.
			for kk := range left {
				left[kk] = 0
			}
			for s := 0; s < k; s++ {
				w := freqs[s] * ls[s]
				if w == 0 {
					continue
				}
				row := (*[20]float64)(ev[s*k:])
				for kk := 0; kk < k; kk += 4 {
					left[kk] += w * row[kk]
					left[kk+1] += w * row[kk+1]
					left[kk+2] += w * row[kk+2]
					left[kk+3] += w * row[kk+3]
				}
			}
			var rs *[20]float64
			if a.tipQ {
				rs = (*[20]float64)(e.tipInd[q*k:])
			} else {
				rs = (*[20]float64)(xq[qb+o:])
			}
			// right_k = sum_j V^-1[k][j] x_q[j]: four zero-initialised
			// chains per pass, ascending j.
			dst := (*[20]float64)(sumTab[base+o:])
			for kk := 0; kk < k; kk += 4 {
				r0 := iv[kk*20 : kk*20+20]
				r1 := iv[kk*20+20 : kk*20+40]
				r2 := iv[kk*20+40 : kk*20+60]
				r3 := iv[kk*20+60 : kk*20+80]
				var a0, a1, a2, a3 float64
				for j := 0; j < k; j++ {
					xj := rs[j]
					a0 += r0[j] * xj
					a1 += r1[j] * xj
					a2 += r2[j] * xj
					a3 += r3[j] * xj
				}
				dst[kk] = left[kk] * a0
				dst[kk+1] = left[kk+1] * a1
				dst[kk+2] = left[kk+2] * a2
				dst[kk+3] = left[kk+3] * a3
			}
		}
	}
}
