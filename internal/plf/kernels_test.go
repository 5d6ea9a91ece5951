package plf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/ooc"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// The kernel-dispatch exactness contract: for ANY kernel mode, worker
// count and provider, every ancestral vector, scale counter, likelihood,
// derivative and optimised branch length must be bit-identical to the
// generic kernels. These tests enforce it on random and simulated data.

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelPair builds two engines over independent topology clones and
// providers: one forced to the generic kernels (the reference op order),
// one on the requested mode.
func kernelPair(t *testing.T, tr *tree.Tree, pats *bio.Patterns, m *model.Model, mode string) (gen, spec *Engine) {
	t.Helper()
	gen = newEngine(t, tr.Clone(), pats, m)
	if err := gen.SetKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	spec = newEngine(t, tr.Clone(), pats, m)
	if err := spec.SetKernel(mode); err != nil {
		t.Fatal(err)
	}
	return gen, spec
}

// compareState asserts every pattern's block and scale counter of every
// inner vector matches bit-for-bit between the two engines, each read
// through its own engine's class map, and that the generic engine's
// maps are the identity (it computes every pattern).
func compareState(t *testing.T, gen, auto *Engine, tag string) {
	t.Helper()
	stride := gen.nCat * gen.nStates
	for vi := 0; vi < gen.T.NumInner(); vi++ {
		// Only compare vectors both engines consider valid; stale slots
		// may legitimately hold garbage.
		if gen.orient[vi+gen.T.NumTips] == nil || auto.orient[vi+auto.T.NumTips] == nil {
			continue
		}
		xg, err := gen.prov.Vector(vi, false)
		if err != nil {
			t.Fatal(err)
		}
		xa, err := auto.prov.Vector(vi, false)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < gen.nPat; j++ {
			bg, ba := int(gen.cls[vi][j]), int(auto.cls[vi][j])
			if bg != j {
				t.Fatalf("%s: generic class map %d[%d] = %d, want the identity", tag, vi, j, bg)
			}
			for s := 0; s < stride; s++ {
				g, a := xg[bg*stride+s], xa[ba*stride+s]
				if !bitsEq(g, a) {
					t.Fatalf("%s: vector %d pattern %d [%d]: generic %v (%x) vs %s %v (%x)",
						tag, vi, j, s, g, math.Float64bits(g),
						auto.KernelName(), a, math.Float64bits(a))
				}
			}
			if gen.scales[vi][bg] != auto.scales[vi][ba] {
				t.Fatalf("%s: scale %d pattern %d: generic %d vs %d", tag, vi, j,
					gen.scales[vi][bg], auto.scales[vi][ba])
			}
		}
	}
}

// TestKernelDifferentialFuzz fuzzes random alignments, models and branch
// lengths through both kernel modes and requires bit-identical results
// everywhere the engines expose them.
func TestKernelDifferentialFuzz(t *testing.T) {
	cases := []struct {
		dtype bio.DataType
		ncat  int
		seeds int
		sites int
		mode  string
		want  string // expected specialised kernel name
		// sim draws the alignment down its tree at the simulator's low
		// divergence, so most sites repeat below most nodes (random
		// columns barely repeat above the cherries). The test requires
		// auto to compute under half the site-newviews.
		sim bool
		// overCap requires a node of the first full traversal to pass
		// the pair-table cap, so the every-pattern-its-own-class path
		// is exercised.
		overCap bool
		// taxa replaces the 10-taxon random tree. scaling requires a
		// pattern's block to have dropped below 2^-256 (a scale counter
		// above zero), which random columns do on a deep enough tree.
		taxa    int
		scaling bool
		// workers fans every engine's kernels out (0 and 1 run one).
		workers int
	}{
		{dtype: bio.DNA, ncat: 1, seeds: 3, sites: 300, mode: KernelAuto, want: "dna4"},
		{dtype: bio.DNA, ncat: 4, seeds: 3, sites: 300, mode: KernelAuto, want: "dna4"},
		{dtype: bio.AA, ncat: 1, seeds: 1, sites: 80, mode: KernelAuto, want: "aa20"},
		{dtype: bio.AA, ncat: 4, seeds: 1, sites: 80, mode: KernelAuto, want: "aa20"},
		{dtype: bio.DNA, ncat: 4, seeds: 2, sites: 400, mode: KernelAuto, want: "dna4", sim: true},
		{dtype: bio.AA, ncat: 4, seeds: 1, sites: 600, mode: KernelAuto, want: "aa20", overCap: true},
		{dtype: bio.DNA, ncat: 4, seeds: 1, sites: 60, mode: KernelAuto, want: "dna4", taxa: 150, scaling: true},
		{dtype: bio.DNA, ncat: 3, seeds: 1, sites: 1500, mode: KernelAuto, want: "dna4", workers: 3},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%v_c%d_%s_f64", tc.dtype, tc.ncat, tc.want)
		if tc.sim {
			name += "_sim"
		}
		if tc.overCap {
			name += "_wide"
		}
		if tc.scaling {
			name += "_scaled"
		}
		if tc.workers > 1 {
			name += fmt.Sprintf("_workers%d", tc.workers)
		}
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < tc.seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(991*seed + tc.ncat)))
				names := tipNames(max(tc.taxa, 10))
				tr, err := tree.RandomTopology(names, rng, 0.01, 0.8)
				if err != nil {
					t.Fatal(err)
				}
				var pats *bio.Patterns
				if tc.sim {
					ds, err := sim.NewDataset(sim.Config{Taxa: 16, Sites: tc.sites, GammaAlpha: 0.5,
						Seed: int64(seed + 1), AA: tc.dtype == bio.AA})
					if err != nil {
						t.Fatal(err)
					}
					tr, pats = ds.Tree, ds.Patterns
				} else {
					pats = randomAlignment(t, names, tc.sites, rng, tc.dtype)
				}
				m := randomModel(t, rng, tc.dtype, false)
				if err := m.SetGamma(0.3+1.5*rng.Float64(), tc.ncat); err != nil {
					t.Fatal(err)
				}
				gen, auto := kernelPair(t, tr, pats, m, tc.mode)
				if auto.KernelName() != tc.want {
					t.Fatalf("mode %s selected kernel %q, want %q", tc.mode, auto.KernelName(), tc.want)
				}
				specs := kernelSets(t, tr, pats, m, auto)
				for _, e := range append(specs, gen) {
					e.SetWorkers(tc.workers)
					t.Cleanup(e.Close)
				}

				for round := 0; round < 3; round++ {
					tag := fmt.Sprintf("seed=%d round=%d", seed, round)
					// Same fresh random branch lengths on every clone,
					// including lengths tiny enough to trigger scaling.
					for ei := range gen.T.Edges {
						l := math.Exp(rng.Float64()*8-6) * 0.1
						gen.T.Edges[ei].Length = l
						for _, e := range specs {
							e.T.Edges[ei].Length = l
						}
					}
					gen.InvalidateAll()
					for _, e := range specs {
						e.InvalidateAll()
					}

					for _, ei := range []int{0, rng.Intn(len(gen.T.Edges))} {
						lg, err := gen.LogLikelihoodAt(gen.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range specs {
							la, err := e.LogLikelihoodAt(e.T.Edges[ei])
							if err != nil {
								t.Fatal(err)
							}
							if !bitsEq(lg, la) {
								t.Fatalf("%s edge=%d: lnL generic %.17g vs %s %.17g",
									tag, ei, lg, setLabel(e.c.kern), la)
							}
						}
						if round == 0 && ei == 0 {
							all := auto.Stats.Newviews * int64(pats.NumPatterns())
							if tc.sim && 2*auto.Stats.ClassesComputed >= all {
								t.Fatalf("%s: auto computed %d of %d site-newviews on simulated data, want under half",
									tag, auto.Stats.ClassesComputed, all)
							}
							if tc.overCap && !passesPairCap(auto, auto.T.Edges[0]) {
								t.Fatalf("%s: no node passed the pair-table cap; widen the case", tag)
							}
							if tc.scaling && !scaled(gen) {
								t.Fatalf("%s: no pattern was scaled; deepen the case", tag)
							}
							if tc.workers > 1 && slices.Max(auto.ncls) < tc.workers*minPatternsPerWorker {
								t.Fatalf("%s: no newview had enough classes to fan out; widen the case", tag)
							}
						}
					}
					for _, e := range specs {
						compareState(t, gen, e, tag+" "+setLabel(e.c.kern))
					}

					// Derivative machinery: the sum table must agree at an
					// arbitrary probe length, and Newton must land on the
					// same optimum to the bit.
					ei := rng.Intn(len(gen.T.Edges))
					probe := math.Exp(rng.Float64()*6 - 4)
					dg, err := gen.EvaluateAtLength(gen.T.Edges[ei], probe)
					if err != nil {
						t.Fatal(err)
					}
					og, err := gen.OptimizeBranch(gen.T.Edges[ei])
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range specs {
						da, err := e.EvaluateAtLength(e.T.Edges[ei], probe)
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEq(dg, da) {
							t.Fatalf("%s: sum-table lnL(%v) generic %.17g vs %s %.17g", tag, probe, dg, setLabel(e.c.kern), da)
						}
						oa, err := e.OptimizeBranch(e.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEq(og, oa) || !bitsEq(gen.T.Edges[ei].Length, e.T.Edges[ei].Length) {
							t.Fatalf("%s: OptimizeBranch generic (%.17g, t=%v) vs %s (%.17g, t=%v)",
								tag, og, gen.T.Edges[ei].Length, setLabel(e.c.kern), oa, e.T.Edges[ei].Length)
						}
					}
				}
			}
		})
	}
	t.Run("DNA_newview_direct", testDNANewviewDirect)
}

// testDNANewviewDirect runs the newview bodies — generic, pure-Go dna4
// and, on an AVX2 CPU, assembly dna4 — on crafted operands: child
// blocks of zeros, blocks small enough that the output falls below
// 2^-256 (some with a NaN), ordinary ones, and transition matrices with
// zero entries; in
// every tip-ness case, at one category and several, over two ranges so
// the assembly starts mid-vector. Every output word and scale counter
// must agree.
func testDNANewviewDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := tipNames(6)
	pats := randomAlignment(t, names, 40, rng, bio.DNA)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sets := []kernelSet{genericKernels{}, dnaKernels{}}
	if hasAVX2 {
		sets = append(sets, dnaKernels{avx2: true})
	} else {
		t.Log("no AVX2 on this CPU: the assembly dna4 newview is not exercised")
	}
	for _, ncat := range []int{1, 4, 5} {
		m := randomModel(t, rng, bio.DNA, false)
		if err := m.SetGamma(0.7, ncat); err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, tr, pats, m)
		nm, stride := len(e.maskList), ncat*4
		block := func(dst []float64) {
			kind := rng.Intn(5)
			for j := range dst {
				switch {
				case kind == 0 || rng.Intn(5) == 0:
					dst[j] = 0
				case kind <= 2:
					dst[j] = math.Ldexp(rng.Float64(), -130-rng.Intn(20))
				default:
					dst[j] = rng.Float64()
				}
			}
			if kind == 2 {
				// A NaN must not hide the rest of the block from the
				// scaling test, as the scalar v > blockMax skips it.
				dst[rng.Intn(len(dst))] = math.NaN()
			}
		}
		scaledOut := 0
		for trial := 0; trial < 24; trial++ {
			tipL, tipR := trial%4 == 1 || trial%4 == 3, trial%4 >= 2
			n := 70 + rng.Intn(30)
			a := nvArgs{tipL: tipL, tipR: tipR, nm: nm}
			side := func(tip bool) (x []float64, sc, cl []int32, pm, ts []float64) {
				pm = make([]float64, ncat*16)
				for j := range pm {
					if rng.Intn(5) > 0 {
						pm[j] = rng.Float64()
					}
				}
				nc := nm
				if !tip {
					nc = 1 + rng.Intn(40)
					x = make([]float64, nc*stride)
					sc = make([]int32, nc)
					for c := 0; c < nc; c++ {
						block(x[c*stride : (c+1)*stride])
						sc[c] = int32(rng.Intn(3))
					}
				} else {
					ts = make([]float64, ncat*nm*4)
					buildTipSum(e, ts, pm)
				}
				cl = make([]int32, n)
				for i := range cl {
					cl[i] = int32(rng.Intn(nc))
				}
				return x, sc, cl, pm, ts
			}
			a.xl, a.scl, a.cl, a.pmL, a.tsL = side(tipL)
			a.xr, a.scr, a.cr, a.pmR, a.tsR = side(tipR)
			var want []float64
			var wantSc []int32
			for _, ks := range sets {
				b := a
				b.xp, b.scp = make([]float64, n*stride), make([]int32, n)
				e.c.kern = ks
				ks.prepareNewview(e, &b)
				mid := rng.Intn(n)
				ks.newview(e, &b, 0, mid)
				ks.newview(e, &b, mid, n)
				if want == nil {
					want, wantSc = b.xp, b.scp
					for i, c := range wantSc {
						var in int32
						if !tipL {
							in += a.scl[a.cl[i]]
						}
						if !tipR {
							in += a.scr[a.cr[i]]
						}
						if c > in {
							scaledOut++
						}
					}
					continue
				}
				for j := range want {
					if !bitsEq(want[j], b.xp[j]) {
						t.Fatalf("c=%d trial %d (tips %v/%v) word %d: generic %v vs %s %v",
							ncat, trial, tipL, tipR, j, want[j], setLabel(ks), b.xp[j])
					}
				}
				if !slices.Equal(wantSc, b.scp) {
					t.Fatalf("c=%d trial %d (tips %v/%v): scale counters generic %v vs %s %v",
						ncat, trial, tipL, tipR, wantSc, setLabel(ks), b.scp)
				}
			}
		}
		if scaledOut == 0 {
			t.Fatalf("c=%d: no output block was scaled", ncat)
		}
	}
}

// setLabel names a kernel set, telling dna4's two bodies apart.
func setLabel(ks kernelSet) string {
	if k, ok := ks.(dnaKernels); ok {
		if k.avx2 {
			return "dna4 (AVX2)"
		}
		return "dna4 (pure Go)"
	}
	return ks.name()
}

// kernelSets returns the specialised engines a differential test holds
// to the generic one: auto itself, and for dna4 a clone on the pure-Go
// bodies, so that on an AVX2 CPU generic, pure-Go dna4 and assembly
// dna4 are compared with each other.
func kernelSets(t *testing.T, tr *tree.Tree, pats *bio.Patterns, m *model.Model, auto *Engine) []*Engine {
	t.Helper()
	if auto.KernelName() != "dna4" {
		return []*Engine{auto}
	}
	pure := newEngine(t, tr.Clone(), pats, m)
	usePureGoDNA(pure)
	if !hasAVX2 {
		t.Log("no AVX2 on this CPU: the assembly dna4 newview is not exercised")
		return []*Engine{pure}
	}
	return []*Engine{auto, pure}
}

// usePureGoDNA is the test hook that puts e on dna4's pure-Go bodies,
// the oracle the assembly is held to.
func usePureGoDNA(e *Engine) { e.c.kern = dnaKernels{} }

// scaled reports whether any valid vector of e holds a scaled class.
func scaled(e *Engine) bool {
	for vi, sc := range e.scales {
		if e.orient[vi+e.T.NumTips] == nil {
			continue
		}
		for _, c := range sc[:e.ncls[vi]] {
			if c > 0 {
				return true
			}
		}
	}
	return false
}

// passesPairCap reports whether a full traversal toward edge has a node
// whose children's class counts multiply past the pair table (capped at
// pairTableCap), read from the class maps e holds after running that
// traversal.
func passesPairCap(e *Engine, edge *tree.Edge) bool {
	for _, s := range tree.FullTraversal(e.T, edge) {
		_, nl := e.classMap(s.Left)
		_, nr := e.classMap(s.Right)
		if nl*nr > len(e.pairGen) {
			return e.ncls[e.vi(s.Node)] == e.nPat
		}
	}
	return false
}

// oocEngine builds an engine over a small out-of-core manager (f = 0.3)
// above a MemStore. The manager checks every record it
// reads against the checksum it recorded and counts each refusal, so a
// test can require that none was.
func oocEngine(t *testing.T, tr *tree.Tree, pats *bio.Patterns, m *model.Model) (*Engine, *ooc.Manager) {
	t.Helper()
	cl := VectorLength(m, pats.NumPatterns())
	n := tr.NumInner()
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: cl, Slots: ooc.SlotsForFraction(0.3, n),
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: ooc.NewMemStore(n, cl),
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tr, pats, m, mgr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close(); mgr.Close() })
	return e, mgr
}

// TestSetKernelSwitchMidRun switches one engine auto → generic → auto
// (and once more) between partial traversals, so each mode's newviews
// read vectors — and class maps — the other mode wrote, and requires
// every lnL, Newton optimum, vector block and scale counter to match an
// engine that ran generic throughout, and every valid class map to be
// a fresh build's (a map generic built is never reused under auto). The ooc rows run the switched
// engine out of core, so records written under one mode — prefixes
// under auto, full width under generic — are read back under the other.
func TestSetKernelSwitchMidRun(t *testing.T) {
	for _, tc := range []struct {
		aa  bool
		ooc bool
	}{
		{false, false},
		{true, false},
		{false, true},
	} {
		name := fmt.Sprintf("aa=%v_f64", tc.aa)
		if tc.ooc {
			name += "_ooc"
		}
		t.Run(name, func(t *testing.T) {
			sites := 400
			if tc.aa {
				sites = 120
			}
			ds, err := sim.NewDataset(sim.Config{Taxa: 20, Sites: sites, GammaAlpha: 0.6, Seed: 3, AA: tc.aa})
			if err != nil {
				t.Fatal(err)
			}
			ref, sw := kernelPair(t, ds.Tree, ds.Patterns, ds.Model, KernelAuto)
			var mgr *ooc.Manager
			if tc.ooc {
				sw, mgr = oocEngine(t, ds.Tree.Clone(), ds.Patterns, ds.Model)
			}
			rng := rand.New(rand.NewSource(12))
			mixed := false
			for phase, mode := range []string{KernelAuto, KernelGeneric, KernelAuto, KernelGeneric, KernelAuto} {
				if err := sw.SetKernel(mode); err != nil {
					t.Fatal(err)
				}
				newviews := sw.Stats.Newviews
				for op := 0; op < 4; op++ {
					tag := fmt.Sprintf("phase=%d (%s) op=%d", phase, mode, op)
					ei := rng.Intn(len(ref.T.Edges))
					lr, err := ref.LogLikelihoodAt(ref.T.Edges[ei])
					if err != nil {
						t.Fatal(err)
					}
					ls, err := sw.LogLikelihoodAt(sw.T.Edges[ei])
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEq(lr, ls) {
						t.Fatalf("%s edge=%d: lnL generic %.17g vs switched %.17g", tag, ei, lr, ls)
					}
					if op == 3 {
						or, err := ref.OptimizeBranch(ref.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						os, err := sw.OptimizeBranch(sw.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEq(or, os) || !bitsEq(ref.T.Edges[ei].Length, sw.T.Edges[ei].Length) {
							t.Fatalf("%s: OptimizeBranch generic (%.17g, t=%v) vs switched (%.17g, t=%v)",
								tag, or, ref.T.Edges[ei].Length, os, sw.T.Edges[ei].Length)
						}
					}
					compareState(t, ref, sw, tag)
					checkClassMaps(t, sw, true, tag)
				}
				// The run must really mix: a generic phase that computed
				// something while vectors auto classified (fewer classes
				// than patterns) stayed valid beside them.
				if mode == KernelGeneric && sw.Stats.Newviews > newviews {
					for vi := range sw.ncls {
						if sw.orient[vi+sw.T.NumTips] != nil && sw.ncls[vi] < sw.nPat {
							mixed = true
						}
					}
				}
			}
			if !mixed {
				t.Fatal("no generic phase ran beside valid auto-classified vectors; the switch test is vacuous")
			}
			if tc.ooc {
				if err := mgr.Flush(); err != nil {
					t.Fatal(err)
				}
				st, slot := mgr.Stats(), int64(mgr.VectorLen())*8
				if cr := mgr.PipelineStats().CorruptReads; cr != 0 || sw.Stats.Recoveries != 0 {
					t.Errorf("%d reads failed verification, %d recoveries", cr, sw.Stats.Recoveries)
				}
				if st.Reads == 0 || st.BytesWritten >= st.Writes*slot {
					t.Errorf("want records read back and some shorter than the slot: %+v", st)
				}
			}
		})
	}
}

// TestKernelDifferentialInvariant covers the +I mixture tail, which the
// kernels reach through the shared siteTerm helper.
func TestKernelDifferentialInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	names := tipNames(8)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 200, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	if err := m.SetInvariant(0.3); err != nil {
		t.Fatal(err)
	}
	gen, auto := kernelPair(t, tr, pats, m, KernelAuto)
	lg, err := gen.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	la, err := auto.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(lg, la) {
		t.Fatalf("+I lnL: generic %.17g vs %.17g", lg, la)
	}
}

// TestKernelDifferentialOOC runs the specialised kernels over an
// out-of-core manager, with one worker and with several (exercising the
// worker pool under -race), and requires the same bits the in-memory
// generic reference produces, per data type.
func TestKernelDifferentialOOC(t *testing.T) {
	cases := []struct {
		dtype bio.DataType
		sites int
	}{
		{bio.DNA, 1500},
		{bio.AA, 400},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v_f64", tc.dtype), func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			names := tipNames(20)
			tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			pats := randomAlignment(t, names, tc.sites, rng, tc.dtype)
			m := randomModel(t, rng, tc.dtype, true)

			run := func(e *Engine) (float64, float64, float64) {
				t.Helper()
				lnl, err := e.LogLikelihood()
				if err != nil {
					t.Fatal(err)
				}
				edge := e.T.Edges[3]
				opt, err := e.OptimizeBranch(edge)
				if err != nil {
					t.Fatal(err)
				}
				return lnl, opt, edge.Length
			}

			ref := newEngine(t, tr.Clone(), pats, m)
			if err := ref.SetKernel(KernelGeneric); err != nil {
				t.Fatal(err)
			}
			wantLnl, wantOpt, wantLen := run(ref)

			vecLen := VectorLength(m, pats.NumPatterns())
			n := tr.NumInner()
			for _, workers := range []int{1, 4} {
				mgr, err := ooc.NewManager(ooc.Config{
					NumVectors: n, VectorLen: vecLen,
					Slots:        ooc.SlotsForFraction(0.4, n),
					Strategy:     ooc.NewLRU(n),
					ReadSkipping: true,
					Store:        ooc.NewMemStore(n, vecLen),
				})
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(tr.Clone(), pats, m, mgr)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkers(workers)
				lnl, opt, length := run(e)
				e.Close()
				if err := mgr.Close(); err != nil {
					t.Fatal(err)
				}
				if !bitsEq(lnl, wantLnl) || !bitsEq(opt, wantOpt) || !bitsEq(length, wantLen) {
					t.Fatalf("workers=%d: (%.17g, %.17g, %v) differs from generic in-memory (%.17g, %.17g, %v)",
						workers, lnl, opt, length, wantLnl, wantOpt, wantLen)
				}
			}
		})
	}
}

func TestSetKernelRejectsUnknownMode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := tipNames(4)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 40, rng, bio.DNA)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	if err := e.SetKernel("avx512"); err == nil {
		t.Fatal("unknown kernel mode must be rejected")
	}
	if e.KernelMode() != KernelAuto || e.KernelName() != "dna4" {
		t.Fatalf("failed SetKernel must not change the active kernel, got %s/%s",
			e.KernelMode(), e.KernelName())
	}
}

func TestKernelAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := tipNames(4)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dna := randomAlignment(t, names, 40, rng, bio.DNA)
	mDNA, _ := model.NewJC(4)
	e := newEngine(t, tr, dna, mDNA)
	if e.KernelMode() != KernelAuto || e.KernelName() != "dna4" {
		t.Fatalf("DNA engine: mode %q kernel %q", e.KernelMode(), e.KernelName())
	}
	if want := (dnaKernels{avx2: hasAVX2}); e.c.kern != kernelSet(want) {
		t.Fatalf("auto DNA kernel set %#v, want %#v: the assembly runs iff the CPU has AVX2", e.c.kern, want)
	}
	if err := e.SetKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	if e.KernelName() != "generic" || e.pcacheEnabled() {
		t.Fatal("KernelGeneric must select the generic set and disable the P cache")
	}

	aa := randomAlignment(t, names, 40, rng, bio.AA)
	mAA, _ := model.NewJC(20)
	e2 := newEngine(t, tr.Clone(), aa, mAA)
	if e2.KernelName() != "aa20" {
		t.Fatalf("AA engine under auto must use the protein kernels, got %q", e2.KernelName())
	}
	if !e2.pcacheEnabled() {
		t.Fatal("auto mode must enable the P cache")
	}
	if err := e2.SetKernel("blocked"); err == nil ||
		!strings.Contains(err.Error(), KernelAuto) || !strings.Contains(err.Error(), KernelGeneric) {
		t.Fatalf("a removed kernel mode must be rejected naming auto and generic, got %v", err)
	}

	// auto specialises exactly the two alphabets internal/bio has; every
	// other state count runs the generic loops.
	for k, want := range map[int]string{2: "generic", 4: "dna4", 5: "generic", 20: "aa20", 61: "generic"} {
		ks, err := selectKernelSet(KernelAuto, k)
		if err != nil {
			t.Fatal(err)
		}
		if ks.name() != want {
			t.Errorf("auto for k=%d picked %q, want %q", k, ks.name(), want)
		}
	}
}
