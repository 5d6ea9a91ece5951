package plf

// DNA-specialised kernels: the k=4 inner loops fully unrolled, with a
// c=4 fast path and per-call dispatch on the tip-ness of a newview's
// children (tip×tip, tip×inner, inner×inner — RAxML's newviewGTRGAMMA
// case split). The tip×tip case is served by a precomputed
// tipSumL×tipSumR mask-pair product table (RAxML's x1px2), turning the
// whole inner loop into one table copy per pattern.
//
// Exactness: every function below performs the generic kernel's
// floating-point operations in the generic kernel's order, so outputs
// are bit-identical for any kernel choice. Two
// properties make the shorter unrolled expressions safe:
//
//   - a0+a1+a2+a3 associates as ((a0+a1)+a2)+a3, which differs from the
//     generic acc := 0.0; acc += aj chain only in the leading 0.0+a0 —
//     and 0.0+x == x bit-for-bit unless x is -0.0. Transition-matrix
//     entries are clamped to >= +0.0 (model.PMatrix), ancestral vectors
//     and tip indicators are products/sums of non-negative values, so
//     no product aj here can be -0.0. Where an operand CAN be negative
//     (the eigenvector sums in the sum-table kernel) the explicit
//     leading 0.0 is kept.
//   - IEEE-754 multiplication is commutative bit-for-bit, so writing
//     tip·inner for the generic's inner·tip (right-tip newview case) is
//     exact.
//
// The differential fuzz tests (kernels_test.go) enforce both claims on
// random inputs, per vector and per likelihood.

type dnaKernels struct{}

func (dnaKernels) name() string { return "dna4" }

// prepareNewview builds the tip×tip product table
//
//	prodTT[((ml*nm+mr)*C+c)*4+s] = tsL[c,ml,s] * tsR[c,mr,s]
//
// laid out pair-major so each pattern's C×4 block is one contiguous
// copy. nm ≤ 16 for DNA (distinct observed masks), so the table is at
// most C·16·16·4 elements and costs O(nm²·C·4) multiplies per call —
// amortised over the nPat-pattern loop it replaces.
func (dnaKernels) prepareNewview(e *Engine, a *nvArgs) {
	if !a.tipL || !a.tipR {
		return
	}
	C, nm := e.nCat, a.nm
	stride := C * 4
	need := nm * nm * stride
	if cap(e.c.prodTT) < need {
		e.c.prodTT = make([]float64, need)
	}
	prod := e.c.prodTT[:need]
	for ml := 0; ml < nm; ml++ {
		for mr := 0; mr < nm; mr++ {
			for c := 0; c < C; c++ {
				l := (*[4]float64)(a.tsL[(c*nm+ml)*4:])
				r := (*[4]float64)(a.tsR[(c*nm+mr)*4:])
				dst := (*[4]float64)(prod[(ml*nm+mr)*stride+c*4:])
				dst[0] = l[0] * r[0]
				dst[1] = l[1] * r[1]
				dst[2] = l[2] * r[2]
				dst[3] = l[3] * r[3]
			}
		}
	}
	a.prodTT = prod
}

func (dnaKernels) newview(e *Engine, a *nvArgs, lo, hi int) {
	switch {
	case a.tipL && a.tipR:
		dnaNewviewTT(e, a, lo, hi)
	case a.tipL:
		dnaNewviewTI(e, a, a.cl, a.tsL, a.cr, a.xr, a.pmR, a.scr, lo, hi)
	case a.tipR:
		dnaNewviewTI(e, a, a.cr, a.tsR, a.cl, a.xl, a.pmL, a.scl, lo, hi)
	default:
		if e.nCat == 4 {
			dnaNewviewII4(a, lo, hi)
		} else {
			dnaNewviewII(e, a, lo, hi)
		}
	}
}

// dnaNewviewTT: both children are tips; the whole per-pattern inner
// loop is one copy from the mask-pair product table plus the max scan.
func dnaNewviewTT(e *Engine, a *nvArgs, lo, hi int) {
	C, nm := e.nCat, a.nm
	stride := C * 4
	prod, xp, scp := a.prodTT, a.xp, a.scp
	cl, cr := a.cl, a.cr
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
}

// dnaNewviewTI: one tip child (mask codes tc + tip-sum table ts) and
// one inner child (blocks xc of vector x across matrices pm, with
// scales sc).
func dnaNewviewTI(e *Engine, a *nvArgs, tc []int32, ts []float64, xc []int32, x, pm []float64, sc []int32, lo, hi int) {
	C, nm := e.nCat, a.nm
	stride := C * 4
	xp, scp := a.xp, a.scp
	for i := lo; i < hi; i++ {
		base := i * stride
		xb := int(xc[i]) * stride
		mi := int(tc[i]) * 4
		blockMax := 0.0
		for c := 0; c < C; c++ {
			o := base + c*4
			src := (*[4]float64)(x[xb+c*4:])
			p := (*[16]float64)(pm[c*16:])
			tb := (*[4]float64)(ts[c*nm*4+mi:])
			x0, x1, x2, x3 := src[0], src[1], src[2], src[3]
			r0 := p[0]*x0 + p[1]*x1 + p[2]*x2 + p[3]*x3
			r1 := p[4]*x0 + p[5]*x1 + p[6]*x2 + p[7]*x3
			r2 := p[8]*x0 + p[9]*x1 + p[10]*x2 + p[11]*x3
			r3 := p[12]*x0 + p[13]*x1 + p[14]*x2 + p[15]*x3
			dst := (*[4]float64)(xp[o:])
			v0 := tb[0] * r0
			dst[0] = v0
			if v0 > blockMax {
				blockMax = v0
			}
			v1 := tb[1] * r1
			dst[1] = v1
			if v1 > blockMax {
				blockMax = v1
			}
			v2 := tb[2] * r2
			dst[2] = v2
			if v2 > blockMax {
				blockMax = v2
			}
			v3 := tb[3] * r3
			dst[3] = v3
			if v3 > blockMax {
				blockMax = v3
			}
		}
		scaleTail(xp[base:base+stride], scp, i, sc[xc[i]], blockMax)
	}
}

// dnaNewviewIICat computes one category block of the inner×inner case:
// dst = (pl · l) ⊙ (pr · r), returning the updated block maximum.
func dnaNewviewIICat(pl, pr *[16]float64, l, r, dst *[4]float64, blockMax float64) float64 {
	l0, l1, l2, l3 := l[0], l[1], l[2], l[3]
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	la0 := pl[0]*l0 + pl[1]*l1 + pl[2]*l2 + pl[3]*l3
	la1 := pl[4]*l0 + pl[5]*l1 + pl[6]*l2 + pl[7]*l3
	la2 := pl[8]*l0 + pl[9]*l1 + pl[10]*l2 + pl[11]*l3
	la3 := pl[12]*l0 + pl[13]*l1 + pl[14]*l2 + pl[15]*l3
	ra0 := pr[0]*r0 + pr[1]*r1 + pr[2]*r2 + pr[3]*r3
	ra1 := pr[4]*r0 + pr[5]*r1 + pr[6]*r2 + pr[7]*r3
	ra2 := pr[8]*r0 + pr[9]*r1 + pr[10]*r2 + pr[11]*r3
	ra3 := pr[12]*r0 + pr[13]*r1 + pr[14]*r2 + pr[15]*r3
	v0 := la0 * ra0
	dst[0] = v0
	if v0 > blockMax {
		blockMax = v0
	}
	v1 := la1 * ra1
	dst[1] = v1
	if v1 > blockMax {
		blockMax = v1
	}
	v2 := la2 * ra2
	dst[2] = v2
	if v2 > blockMax {
		blockMax = v2
	}
	v3 := la3 * ra3
	dst[3] = v3
	if v3 > blockMax {
		blockMax = v3
	}
	return blockMax
}

// dnaNewviewII: both children inner, any category count.
func dnaNewviewII(e *Engine, a *nvArgs, lo, hi int) {
	C := e.nCat
	stride := C * 4
	xl, xr, xp := a.xl, a.xr, a.xp
	scl, scr, scp := a.scl, a.scr, a.scp
	cl, cr := a.cl, a.cr
	pmL, pmR := a.pmL, a.pmR
	for i := lo; i < hi; i++ {
		l, r := int(cl[i]), int(cr[i])
		base, lb, rb := i*stride, l*stride, r*stride
		blockMax := 0.0
		for c := 0; c < C; c++ {
			o := c * 4
			blockMax = dnaNewviewIICat(
				(*[16]float64)(pmL[c*16:]), (*[16]float64)(pmR[c*16:]),
				(*[4]float64)(xl[lb+o:]), (*[4]float64)(xr[rb+o:]), (*[4]float64)(xp[base+o:]),
				blockMax)
		}
		scaleTail(xp[base:base+stride], scp, i, scl[l]+scr[r], blockMax)
	}
}

// dnaNewviewII4: the c=4 fast path — category loop unrolled, one
// bounds check per pattern on each vector.
func dnaNewviewII4(a *nvArgs, lo, hi int) {
	xl, xr, xp := a.xl, a.xr, a.xp
	scl, scr, scp := a.scl, a.scr, a.scp
	cl, cr := a.cl, a.cr
	pl0 := (*[16]float64)(a.pmL[0:])
	pl1 := (*[16]float64)(a.pmL[16:])
	pl2 := (*[16]float64)(a.pmL[32:])
	pl3 := (*[16]float64)(a.pmL[48:])
	pr0 := (*[16]float64)(a.pmR[0:])
	pr1 := (*[16]float64)(a.pmR[16:])
	pr2 := (*[16]float64)(a.pmR[32:])
	pr3 := (*[16]float64)(a.pmR[48:])
	for i := lo; i < hi; i++ {
		lc, rc := int(cl[i]), int(cr[i])
		l := xl[lc*16 : lc*16+16]
		r := xr[rc*16 : rc*16+16]
		dst := xp[i*16 : i*16+16]
		blockMax := dnaNewviewIICat(pl0, pr0, (*[4]float64)(l[0:]), (*[4]float64)(r[0:]), (*[4]float64)(dst[0:]), 0.0)
		blockMax = dnaNewviewIICat(pl1, pr1, (*[4]float64)(l[4:]), (*[4]float64)(r[4:]), (*[4]float64)(dst[4:]), blockMax)
		blockMax = dnaNewviewIICat(pl2, pr2, (*[4]float64)(l[8:]), (*[4]float64)(r[8:]), (*[4]float64)(dst[8:]), blockMax)
		blockMax = dnaNewviewIICat(pl3, pr3, (*[4]float64)(l[12:]), (*[4]float64)(r[12:]), (*[4]float64)(dst[12:]), blockMax)
		scaleTail(dst, scp, i, scl[lc]+scr[rc], blockMax)
	}
}

func (dnaKernels) evaluate(e *Engine, a *evArgs, lo, hi int) {
	C, nm := e.nCat, a.nm
	stride := C * 4
	freqs := e.M.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	catW := 1 / float64(C)
	xp, xq := a.xp, a.xq
	scp, scq := a.scp, a.scq
	cp, cq := a.cp, a.cq
	contrib := a.contrib
	for i := lo; i < hi; i++ {
		p, q := int(cp[i]), int(cq[i])
		var cnt int32
		if !a.tipP {
			cnt += scp[p]
		}
		if !a.tipQ {
			cnt += scq[q]
		}
		pb, qb := p*stride, q*stride
		site := 0.0
		for c := 0; c < C; c++ {
			o := c * 4
			var r0, r1, r2, r3 float64
			if a.tipQ {
				tb := (*[4]float64)(a.tsQ[c*nm*4+q*4:])
				r0, r1, r2, r3 = tb[0], tb[1], tb[2], tb[3]
			} else {
				src := (*[4]float64)(xq[qb+o:])
				p := (*[16]float64)(a.pmQ[c*16:])
				x0, x1, x2, x3 := src[0], src[1], src[2], src[3]
				r0 = p[0]*x0 + p[1]*x1 + p[2]*x2 + p[3]*x3
				r1 = p[4]*x0 + p[5]*x1 + p[6]*x2 + p[7]*x3
				r2 = p[8]*x0 + p[9]*x1 + p[10]*x2 + p[11]*x3
				r3 = p[12]*x0 + p[13]*x1 + p[14]*x2 + p[15]*x3
			}
			var f float64
			if a.tipP {
				ind := (*[4]float64)(e.tipInd[p*4:])
				f = f0*ind[0]*r0 + f1*ind[1]*r1 + f2*ind[2]*r2 + f3*ind[3]*r3
			} else {
				src := (*[4]float64)(xp[pb+o:])
				f = f0*src[0]*r0 + f1*src[1]*r1 + f2*src[2]*r2 + f3*src[3]*r3
			}
			site += f
		}
		site *= catW
		contrib[i] = siteTerm(e, i, site, cnt)
	}
}

func (dnaKernels) sumTable(e *Engine, a *sumArgs, lo, hi int) {
	C := e.nCat
	stride := C * 4
	freqs := e.M.Freqs
	fr0, fr1, fr2, fr3 := freqs[0], freqs[1], freqs[2], freqs[3]
	ev := (*[16]float64)(e.M.Evec)
	iv := (*[16]float64)(e.M.Ievec)
	xp, xq := a.xp, a.xq
	cp, cq := a.cp, a.cq
	sumTab := e.c.sumTab
	for i := lo; i < hi; i++ {
		p, q := int(cp[i]), int(cq[i])
		base, pb, qb := i*stride, p*stride, q*stride
		for c := 0; c < C; c++ {
			o := c * 4
			var ls *[4]float64
			if a.tipP {
				ls = (*[4]float64)(e.tipInd[p*4:])
			} else {
				ls = (*[4]float64)(xp[pb+o:])
			}
			// left_k = sum_s pi_s x_p[s] V[s][k], ascending s, preserving
			// the generic kernel's w == 0 skip (eigenvectors can be
			// negative, so accumulation starts at an explicit 0.0).
			var L0, L1, L2, L3 float64
			if w := fr0 * ls[0]; w != 0 {
				L0 += w * ev[0]
				L1 += w * ev[1]
				L2 += w * ev[2]
				L3 += w * ev[3]
			}
			if w := fr1 * ls[1]; w != 0 {
				L0 += w * ev[4]
				L1 += w * ev[5]
				L2 += w * ev[6]
				L3 += w * ev[7]
			}
			if w := fr2 * ls[2]; w != 0 {
				L0 += w * ev[8]
				L1 += w * ev[9]
				L2 += w * ev[10]
				L3 += w * ev[11]
			}
			if w := fr3 * ls[3]; w != 0 {
				L0 += w * ev[12]
				L1 += w * ev[13]
				L2 += w * ev[14]
				L3 += w * ev[15]
			}
			var rs *[4]float64
			if a.tipQ {
				rs = (*[4]float64)(e.tipInd[q*4:])
			} else {
				rs = (*[4]float64)(xq[qb+o:])
			}
			x0, x1, x2, x3 := rs[0], rs[1], rs[2], rs[3]
			// right_k = sum_j V^-1[k][j] x_q[j]; the ievec rows carry
			// negative entries so each sum keeps its leading 0.0 term.
			R0 := 0.0
			R0 += iv[0] * x0
			R0 += iv[1] * x1
			R0 += iv[2] * x2
			R0 += iv[3] * x3
			R1 := 0.0
			R1 += iv[4] * x0
			R1 += iv[5] * x1
			R1 += iv[6] * x2
			R1 += iv[7] * x3
			R2 := 0.0
			R2 += iv[8] * x0
			R2 += iv[9] * x1
			R2 += iv[10] * x2
			R2 += iv[11] * x3
			R3 := 0.0
			R3 += iv[12] * x0
			R3 += iv[13] * x1
			R3 += iv[14] * x2
			R3 += iv[15] * x3
			dst := (*[4]float64)(sumTab[base+o:])
			dst[0] = L0 * R0
			dst[1] = L1 * R1
			dst[2] = L2 * R2
			dst[3] = L3 * R3
		}
	}
}
