package plf

import (
	"fmt"
	"math"
)

// Kernel dispatch. The per-pattern-block inner loops of newview,
// evaluate and the derivative sum table are the PLF's hot paths; they
// are reached through the kernelSet interface so the engine can swap
// the fully generic k-state × c-category loops for state-count-
// specialised implementations (kernels_dna.go, kernels_aa.go) chosen
// once at construction from (nStates, nCat) — the tip-ness of a step is
// dispatched per call inside the set. Every specialised kernel performs
// the exact floating-point operation sequence of the generic one, so
// the kernel choice never changes a single output bit: the paper's
// exactness criterion (§4.1) holds across kernels the same way it holds
// across replacement strategies and worker counts.
//
// A newview kernel computes one block per site class of its node (see
// Engine.classify), reading each child's block through the child's
// class map; evaluate and the sum table read both endpoints per pattern
// through theirs. Under KernelAuto a class is a distinct pair of
// children's classes, computed once however many sites share it; under
// KernelGeneric every pattern is its own class, so the generic run is
// repeat-free — every site computed — and bit-identity with it proves
// the sharing exact.
//
// Every set is generic over the compute element type F (float32 or
// float64); the bit-exactness contract is per precision — see
// precision.go for the cross-precision semantics.

// Kernel mode names accepted by SetKernel and the oocraxml -kernel flag.
const (
	// KernelAuto picks the fastest kernel set for the engine's model
	// dimensions: DNA-unrolled for 4 states, the protein set for 20,
	// the generic loops (with the transition-matrix cache) otherwise.
	KernelAuto = "auto"
	// KernelGeneric forces the generic loops, disables the
	// transition-matrix cache and classifies every pattern as its own
	// class — the repeat-free legacy compute path, kept as the
	// differential-testing baseline.
	KernelGeneric = "generic"
)

// nvArgs carries the resolved inputs of one newview call to its
// class-block kernels. Output class c is computed from cl[c] and cr[c]:
// for a tip child (tipL/tipR) its mask code into the tip-sum table, for
// an inner child the index of its block and scale counter.
type nvArgs[F Float] struct {
	xl, xr, xp    []F
	scl, scr, scp []int32
	cl, cr        []int32
	tipL, tipR    bool
	pmL, pmR      []F // nCat × k² transition matrices
	tsL, tsR      []F // nCat × nm × k tip-sum tables (tip children)
	prodTT        []F // nm × nm × nCat × k tip-pair products (tip×tip)
	nm            int
}

// evArgs carries the resolved inputs of one evaluate call. q is the
// endpoint whose data the P matrix is applied across; cp/cq are the
// endpoints' class maps (per pattern: a tip's mask code, an inner
// vector's block index); contrib receives the per-pattern weighted
// log-likelihood terms (always float64: the logarithmic tail runs in
// double precision in every mode).
type evArgs[F Float] struct {
	xp, xq     []F
	scp, scq   []int32
	cp, cq     []int32
	tipP, tipQ bool
	pmQ        []F
	tsQ        []F
	contrib    []float64
	nm         int
}

// sumArgs carries the resolved endpoint data of one sum-table build,
// class maps as in evArgs.
type sumArgs[F Float] struct {
	xp, xq     []F
	cp, cq     []int32
	tipP, tipQ bool
	nm         int
}

// kernelSet is the engine's compute-kernel vtable. newview processes
// classes [lo, hi) of its output, evaluate and sumTable patterns
// [lo, hi); none may touch state outside that block (the parallelFor
// contract). prepareNewview runs once per newview call before the
// fan-out, for call-wide precomputation.
type kernelSet[F Float] interface {
	name() string
	prepareNewview(e *Engine, cs *compute[F], a *nvArgs[F])
	newview(e *Engine, cs *compute[F], a *nvArgs[F], lo, hi int)
	evaluate(e *Engine, cs *compute[F], a *evArgs[F], lo, hi int)
	sumTable(e *Engine, cs *compute[F], a *sumArgs[F], lo, hi int)
}

// selectKernelSet resolves a kernel mode for a model with nStates
// states. nCat-specific fast paths are chosen inside the returned set
// per call, so the set itself depends only on the state count.
func selectKernelSet[F Float](mode string, nStates int) (kernelSet[F], error) {
	switch mode {
	case KernelAuto:
		switch nStates {
		case 4:
			return dnaKernels[F]{}, nil
		case 20:
			return aaKernels[F]{}, nil
		}
		return genericKernels[F]{}, nil
	case KernelGeneric:
		return genericKernels[F]{}, nil
	}
	return nil, fmt.Errorf("plf: unknown kernel mode %q (want %q or %q)",
		mode, KernelAuto, KernelGeneric)
}

// SetKernel selects the compute-kernel set by mode (KernelAuto or
// KernelGeneric). KernelGeneric restores the exact repeat-free legacy
// path: generic loops, every pattern computed, no transition-matrix
// cache. Switching kernels never changes results — the differential
// tests enforce bit-identical vectors and likelihoods between modes, and
// vectors one mode computed stay readable by the other.
func (e *Engine) SetKernel(mode string) error {
	if e.c32 != nil {
		return setKernel(e, e.c32, mode)
	}
	return setKernel(e, e.c64, mode)
}

func setKernel[F Float](e *Engine, cs *compute[F], mode string) error {
	ks, err := selectKernelSet[F](mode, e.nStates)
	if err != nil {
		return err
	}
	cs.kern = ks
	e.kernelMode = mode
	if mode == KernelGeneric {
		cs.pcache = nil
	} else if cs.pcache == nil {
		cs.pcache = newPCache[F]()
	}
	return nil
}

// KernelMode returns the configured kernel mode (KernelAuto by default).
func (e *Engine) KernelMode() string { return e.kernelMode }

// KernelName reports which kernel set is actually active ("dna4",
// "aa20" or "generic") — under KernelAuto this depends on
// the model's state count.
func (e *Engine) KernelName() string {
	if e.c32 != nil {
		return e.c32.kern.name()
	}
	return e.c64.kern.name()
}

// pcacheEnabled reports whether the transition-matrix cache is active
// (always false under KernelGeneric).
func (e *Engine) pcacheEnabled() bool {
	if e.c32 != nil {
		return e.c32.pcache != nil
	}
	return e.c64.pcache != nil
}

// genericKernels holds the fully generic k-state × c-category loops:
// correct for every model, and the accumulation-order reference every
// specialised kernel must reproduce bit-for-bit.
type genericKernels[F Float] struct{}

func (genericKernels[F]) name() string                                    { return "generic" }
func (genericKernels[F]) prepareNewview(*Engine, *compute[F], *nvArgs[F]) {}

func (genericKernels[F]) newview(e *Engine, cs *compute[F], a *nvArgs[F], lo, hi int) {
	k, C, nm := e.nStates, e.nCat, a.nm
	k2 := k * k
	var la, ra [32]F // k <= 32; fixed scratch avoids allocation
	for i := lo; i < hi; i++ {
		l, r := int(a.cl[i]), int(a.cr[i])
		var cnt int32
		if !a.tipL {
			cnt += a.scl[l]
		}
		if !a.tipR {
			cnt += a.scr[r]
		}
		base := i * C * k
		lb, rb := l*C*k, r*C*k
		blockMax := F(0)
		for c := 0; c < C; c++ {
			// Left factor per state.
			if a.tipL {
				off := (c*nm + l) * k
				copy(la[:k], a.tsL[off:off+k])
			} else {
				src := a.xl[lb+c*k : lb+(c+1)*k]
				p := a.pmL[c*k2 : (c+1)*k2]
				for s := 0; s < k; s++ {
					acc := F(0)
					row := p[s*k : (s+1)*k]
					for j := 0; j < k; j++ {
						acc += row[j] * src[j]
					}
					la[s] = acc
				}
			}
			if a.tipR {
				off := (c*nm + r) * k
				copy(ra[:k], a.tsR[off:off+k])
			} else {
				src := a.xr[rb+c*k : rb+(c+1)*k]
				p := a.pmR[c*k2 : (c+1)*k2]
				for s := 0; s < k; s++ {
					acc := F(0)
					row := p[s*k : (s+1)*k]
					for j := 0; j < k; j++ {
						acc += row[j] * src[j]
					}
					ra[s] = acc
				}
			}
			dst := a.xp[base+c*k : base+(c+1)*k]
			for s := 0; s < k; s++ {
				v := la[s] * ra[s]
				dst[s] = v
				if v > blockMax {
					blockMax = v
				}
			}
		}
		if blockMax < cs.minLik {
			for j := base; j < base+C*k; j++ {
				a.xp[j] *= cs.scaleFac
			}
			cnt++
		}
		// f32 denormal flush, identical to the scaleTail pass the
		// specialised kernels run (no-op in f64 mode where flush is 0).
		if cs.flush != 0 {
			for j := base; j < base+C*k; j++ {
				if a.xp[j] < cs.flush {
					a.xp[j] = 0
				}
			}
		}
		a.scp[i] = cnt
	}
}

func (genericKernels[F]) evaluate(e *Engine, cs *compute[F], a *evArgs[F], lo, hi int) {
	k, C, nm := e.nStates, e.nCat, a.nm
	k2 := k * k
	freqs := cs.freqs
	catW := F(1) / F(C)
	var ra [32]F
	for i := lo; i < hi; i++ {
		p, q := int(a.cp[i]), int(a.cq[i])
		var cnt int32
		if !a.tipP {
			cnt += a.scp[p]
		}
		if !a.tipQ {
			cnt += a.scq[q]
		}
		pb, qb := p*C*k, q*C*k
		site := F(0)
		for c := 0; c < C; c++ {
			// Right factor: (P x_q) per state, or tip lookup.
			if a.tipQ {
				off := (c*nm + q) * k
				copy(ra[:k], a.tsQ[off:off+k])
			} else {
				src := a.xq[qb+c*k : qb+(c+1)*k]
				pm := a.pmQ[c*k2 : (c+1)*k2]
				for s := 0; s < k; s++ {
					acc := F(0)
					row := pm[s*k : (s+1)*k]
					for j := 0; j < k; j++ {
						acc += row[j] * src[j]
					}
					ra[s] = acc
				}
			}
			f := F(0)
			if a.tipP {
				ind := cs.tipInd[p*k : (p+1)*k]
				for s := 0; s < k; s++ {
					f += freqs[s] * ind[s] * ra[s]
				}
			} else {
				src := a.xp[pb+c*k : pb+(c+1)*k]
				for s := 0; s < k; s++ {
					f += freqs[s] * src[s] * ra[s]
				}
			}
			site += f
		}
		site *= catW
		a.contrib[i] = siteTerm(e, cs, i, site, cnt)
	}
}

// siteTerm turns one pattern's raw site likelihood into its weighted
// log-likelihood contribution: underflow clamp, scale-counter
// correction, optional +I mixture, pattern weight. Shared by every
// evaluate kernel so the tail arithmetic is identical by construction.
// The tail always runs in float64: in f32 mode the site value widens
// once here, and the logarithm, scale correction and mixture never
// accumulate single-precision error.
func siteTerm[F Float](e *Engine, cs *compute[F], i int, site F, cnt int32) float64 {
	s := float64(site)
	if s <= 0 {
		// Fully underflowed pattern: clamp to the smallest
		// positive double so the search can continue.
		s = math.SmallestNonzeroFloat64
	}
	lnSite := math.Log(s) - float64(cnt)*cs.logScale
	if p := e.M.PInv; p > 0 {
		lnSite = mixInvariant(lnSite, p, e.linv[i])
	}
	return e.weights[i] * lnSite
}

func (genericKernels[F]) sumTable(e *Engine, cs *compute[F], a *sumArgs[F], lo, hi int) {
	k, C := e.nStates, e.nCat
	freqs := cs.freqs
	evec, ievec := cs.evec, cs.ievec
	var left, right [32]F
	for i := lo; i < hi; i++ {
		p, q := int(a.cp[i]), int(a.cq[i])
		base, pb, qb := i*C*k, p*C*k, q*C*k
		for c := 0; c < C; c++ {
			// left_k = sum_s pi_s x_p[s] V[s][k]
			var lsrc []F
			if a.tipP {
				lsrc = cs.tipInd[p*k : (p+1)*k]
			} else {
				lsrc = a.xp[pb+c*k : pb+(c+1)*k]
			}
			for kk := 0; kk < k; kk++ {
				left[kk] = 0
			}
			for s := 0; s < k; s++ {
				w := freqs[s] * lsrc[s]
				if w == 0 {
					continue
				}
				row := evec[s*k : (s+1)*k]
				for kk := 0; kk < k; kk++ {
					left[kk] += w * row[kk]
				}
			}
			// right_k = sum_j V^-1[k][j] x_q[j]
			var rsrc []F
			if a.tipQ {
				rsrc = cs.tipInd[q*k : (q+1)*k]
			} else {
				rsrc = a.xq[qb+c*k : qb+(c+1)*k]
			}
			for kk := 0; kk < k; kk++ {
				acc := F(0)
				row := ievec[kk*k : (kk+1)*k]
				for j := 0; j < k; j++ {
					acc += row[j] * rsrc[j]
				}
				right[kk] = acc
			}
			dst := cs.sumTab[base+c*k : base+(c+1)*k]
			for kk := 0; kk < k; kk++ {
				dst[kk] = left[kk] * right[kk]
			}
		}
	}
}

// scaleTail applies the per-pattern scaling rule to one C·k block:
// identical comparisons and multiplications to the generic tail.
// Shared by every specialised newview kernel. The flush pass (f32 only;
// flush is 0 in f64 mode and entries are non-negative, so it never
// fires there) zeroes entries so far below the scaling floor that they
// are beneath float32 resolution of the dominant states — without it,
// improbable-state entries drift into the float32 denormal range and
// every operation touching them takes a microcode assist.
func scaleTail[F Float](dst []F, scp []int32, i int, cnt int32, blockMax, minLik, scaleFac, flush F) {
	if blockMax < minLik {
		for j := range dst {
			dst[j] *= scaleFac
		}
		cnt++
	}
	if flush != 0 {
		for j := range dst {
			if dst[j] < flush {
				dst[j] = 0
			}
		}
	}
	scp[i] = cnt
}
