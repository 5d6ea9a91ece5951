package plf

import (
	"fmt"
	"math"
	"math/rand"
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
	}{
		{bio.DNA, 1, 3, 300, KernelAuto, "dna4", false, false},
		{bio.DNA, 4, 3, 300, KernelAuto, "dna4", false, false},
		{bio.AA, 1, 1, 80, KernelAuto, "aa20", false, false},
		{bio.AA, 4, 1, 80, KernelAuto, "aa20", false, false},
		{bio.DNA, 4, 2, 400, KernelAuto, "dna4", true, false},
		{bio.AA, 4, 1, 600, KernelAuto, "aa20", false, true},
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
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < tc.seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(991*seed + tc.ncat)))
				names := tipNames(10)
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

				for round := 0; round < 3; round++ {
					tag := fmt.Sprintf("seed=%d round=%d", seed, round)
					// Same fresh random branch lengths on both clones,
					// including lengths tiny enough to trigger scaling.
					for ei := range gen.T.Edges {
						l := math.Exp(rng.Float64()*8-6) * 0.1
						gen.T.Edges[ei].Length = l
						auto.T.Edges[ei].Length = l
					}
					gen.InvalidateAll()
					auto.InvalidateAll()

					for _, ei := range []int{0, rng.Intn(len(gen.T.Edges))} {
						lg, err := gen.LogLikelihoodAt(gen.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						la, err := auto.LogLikelihoodAt(auto.T.Edges[ei])
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEq(lg, la) {
							t.Fatalf("%s edge=%d: lnL generic %.17g vs %s %.17g",
								tag, ei, lg, auto.KernelName(), la)
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
						}
					}
					compareState(t, gen, auto, tag)

					// Derivative machinery: the sum table must agree at an
					// arbitrary probe length, and Newton must land on the
					// same optimum to the bit.
					ei := rng.Intn(len(gen.T.Edges))
					probe := math.Exp(rng.Float64()*6 - 4)
					dg, err := gen.EvaluateAtLength(gen.T.Edges[ei], probe)
					if err != nil {
						t.Fatal(err)
					}
					da, err := auto.EvaluateAtLength(auto.T.Edges[ei], probe)
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEq(dg, da) {
						t.Fatalf("%s: sum-table lnL(%v) generic %.17g vs %.17g", tag, probe, dg, da)
					}
					og, err := gen.OptimizeBranch(gen.T.Edges[ei])
					if err != nil {
						t.Fatal(err)
					}
					oa, err := auto.OptimizeBranch(auto.T.Edges[ei])
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEq(og, oa) || !bitsEq(gen.T.Edges[ei].Length, auto.T.Edges[ei].Length) {
						t.Fatalf("%s: OptimizeBranch generic (%.17g, t=%v) vs (%.17g, t=%v)",
							tag, og, gen.T.Edges[ei].Length, oa, auto.T.Edges[ei].Length)
					}
				}
			}
		})
	}
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

// asyncEngine builds an engine over a small async manager (f = 0.3,
// prefetching) above ChecksumStore(MemStore). The checksum layer
// refuses a record read at any length but its own, and the manager
// counts each refusal, so a test can require that none was.
func asyncEngine(t *testing.T, tr *tree.Tree, pats *bio.Patterns, m *model.Model) (*Engine, *ooc.Manager) {
	t.Helper()
	cl := VectorLength(m, pats.NumPatterns())
	n := tr.NumInner()
	cs, err := ooc.NewChecksumStore(ooc.NewMemStore(n, cl), "", n, cl)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: cl, Slots: ooc.SlotsForFraction(0.3, n),
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: cs, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tr, pats, m, mgr)
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefetch(true)
	t.Cleanup(func() { e.Close(); mgr.Close() })
	return e, mgr
}

// TestSetKernelSwitchMidRun switches one engine auto → generic → auto
// (and once more) between partial traversals, so each mode's newviews
// read vectors — and class maps — the other mode wrote, and requires
// every lnL, Newton optimum, vector block and scale counter to match an
// engine that ran generic throughout. The ooc rows run the switched
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
				sw, mgr = asyncEngine(t, ds.Tree.Clone(), ds.Patterns, ds.Model)
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

// TestKernelDifferentialOOC runs the specialised kernels over
// synchronous and asynchronous out-of-core managers with multiple
// workers (exercising the worker pool under -race) and requires the
// same bits the in-memory generic reference produces, per data type.
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
			for _, async := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("async=%v workers=%d", async, workers)
					mgr, err := ooc.NewManager(ooc.Config{
						NumVectors: n, VectorLen: vecLen,
						Slots:        ooc.SlotsForFraction(0.4, n),
						Strategy:     ooc.NewLRU(n),
						ReadSkipping: true,
						Store:        ooc.NewMemStore(n, vecLen),
						Async:        async,
					})
					if err != nil {
						t.Fatal(err)
					}
					e, err := New(tr.Clone(), pats, m, mgr)
					if err != nil {
						t.Fatal(err)
					}
					e.EnablePrefetch(true)
					e.SetWorkers(workers)
					lnl, opt, length := run(e)
					e.Close()
					if err := mgr.Close(); err != nil {
						t.Fatal(err)
					}
					if !bitsEq(lnl, wantLnl) || !bitsEq(opt, wantOpt) || !bitsEq(length, wantLen) {
						t.Fatalf("%s: (%.17g, %.17g, %v) differs from generic in-memory (%.17g, %.17g, %v)",
							name, lnl, opt, length, wantLnl, wantOpt, wantLen)
					}
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
