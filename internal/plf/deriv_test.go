package plf

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/mathx"
	"oocphylo/internal/model"
	"oocphylo/internal/tree"
)

func TestSumTableMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	names := tipNames(10)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 70, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	for _, edge := range []*tree.Edge{tr.Edges[0], tr.Edges[3], tr.Edges[len(tr.Edges)-1]} {
		direct, err := e.LogLikelihoodAt(edge)
		if err != nil {
			t.Fatal(err)
		}
		viaTable, err := e.EvaluateAtLength(edge, edge.Length)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-viaTable) > 1e-8*(1+math.Abs(direct)) {
			t.Fatalf("edge %d: evaluate %v, sum table %v", edge.Index, direct, viaTable)
		}
	}
}

func TestSumTablePredictsOtherLengths(t *testing.T) {
	// The sum table is built once but must predict the likelihood at ANY
	// length of that branch; verify against re-evaluation.
	rng := rand.New(rand.NewSource(43))
	names := tipNames(8)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 50, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	edge := tr.Edges[2]
	for _, bt := range []float64{0.01, 0.1, 0.5, 2.0} {
		viaTable, err := e.EvaluateAtLength(edge, bt)
		if err != nil {
			t.Fatal(err)
		}
		old := edge.Length
		edge.Length = bt
		// Endpoint vectors do not depend on this edge, so no traversal
		// invalidation is needed — that invariance is itself under test.
		direct, err := e.evaluate(edge)
		if err != nil {
			t.Fatal(err)
		}
		edge.Length = old
		if math.Abs(direct-viaTable) > 1e-8*(1+math.Abs(direct)) {
			t.Fatalf("t=%v: evaluate %v, sum table %v", bt, direct, viaTable)
		}
	}
}

func TestDerivativesMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	names := tipNames(9)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	edge := tr.Edges[1]
	if err := e.Traverse(edge); err != nil {
		t.Fatal(err)
	}
	if err := e.buildSumTable(edge); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []float64{0.05, 0.2, 0.8} {
		_, d1, d2 := e.sumTableValues(bt, true)
		// h for the second difference is much larger: |lnL| ~ 1e3 means
		// the three-point stencil loses ~13 digits to cancellation at
		// h = 1e-6 but is fine at 1e-4.
		const h1, h2 = 1e-6, 1e-4
		lp, _, _ := e.sumTableValues(bt+h1, true)
		lm, _, _ := e.sumTableValues(bt-h1, true)
		fd1 := (lp - lm) / (2 * h1)
		lp2, _, _ := e.sumTableValues(bt+h2, true)
		lm2, _, _ := e.sumTableValues(bt-h2, true)
		l0, _, _ := e.sumTableValues(bt, true)
		fd2 := (lp2 - 2*l0 + lm2) / (h2 * h2)
		if math.Abs(d1-fd1) > 1e-4*(1+math.Abs(fd1)) {
			t.Errorf("t=%v: d1 = %v, finite diff %v", bt, d1, fd1)
		}
		if math.Abs(d2-fd2) > 1e-3*(1+math.Abs(fd2)) {
			t.Errorf("t=%v: d2 = %v, finite diff %v", bt, d2, fd2)
		}
	}
}

func TestOptimizeBranchTwoTaxonAnalytic(t *testing.T) {
	// ML distance between two sequences under JC: with mismatch fraction
	// p, t* = -3/4 ln(1 - 4p/3).
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	var s1, s2 strings.Builder
	mismatches, total := 12, 100
	for i := 0; i < total; i++ {
		s1.WriteByte('A')
		if i < mismatches {
			s2.WriteByte('C')
		} else {
			s2.WriteByte('A')
		}
	}
	_ = a.AddString("x", s1.String())
	_ = a.AddString("y", s2.String())
	pats, _ := bio.Compress(a)
	tr := tree.NewPair("x", "y", 0.3)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	lnl, err := e.OptimizeBranch(tr.Edges[0])
	if err != nil {
		t.Fatal(err)
	}
	p := float64(mismatches) / float64(total)
	want := -0.75 * math.Log(1-4*p/3)
	if math.Abs(tr.Edges[0].Length-want) > 1e-6 {
		t.Errorf("optimised length %v, want %v", tr.Edges[0].Length, want)
	}
	// And the likelihood at the optimum beats nearby lengths.
	for _, delta := range []float64{-0.01, 0.01} {
		tr.Edges[0].Length = want + delta
		l, err := e.LogLikelihoodAt(tr.Edges[0])
		if err != nil {
			t.Fatal(err)
		}
		if l > lnl+1e-9 {
			t.Errorf("length %v has higher lnL than the 'optimum'", want+delta)
		}
	}
}

func TestOptimizeBranchNeverDecreasesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	names := tipNames(12)
	tr, _ := tree.RandomTopology(names, rng, 0.02, 0.6)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	before, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	cur := before
	for _, edge := range tr.Edges {
		lnl, err := e.OptimizeBranch(edge)
		if err != nil {
			t.Fatal(err)
		}
		if lnl < cur-1e-6 {
			t.Fatalf("edge %d: optimisation decreased lnL from %v to %v", edge.Index, cur, lnl)
		}
		cur = lnl
	}
	if cur < before {
		t.Errorf("full branch sweep decreased lnL: %v -> %v", before, cur)
	}
	// The optimised likelihoods the sum table reported must agree with a
	// fresh evaluation of the final tree.
	fresh, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh-cur) > 1e-7*(1+math.Abs(fresh)) {
		t.Errorf("sum-table lnL %v disagrees with fresh evaluation %v", cur, fresh)
	}
}

func TestOptimizeBranchClampsAtBounds(t *testing.T) {
	// Identical sequences: ML branch length is 0, clamped to the floor.
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	_ = a.AddString("x", "ACGTACGTACGT")
	_ = a.AddString("y", "ACGTACGTACGT")
	pats, _ := bio.Compress(a)
	tr := tree.NewPair("x", "y", 0.5)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	if _, err := e.OptimizeBranch(tr.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if tr.Edges[0].Length > tree.MinBranchLength*1.01 {
		t.Errorf("identical sequences should clamp to the floor, got %v", tr.Edges[0].Length)
	}
}

// oracleSumTableValues is the derivative pass as it stood before the
// exponentials were hoisted — exp(λ_k·r_c·t) re-evaluated for every
// pattern, the log-likelihood term always computed — kept test-only as
// the bit-identity reference for sumTableValues.
func oracleSumTableValues(e *Engine, t float64) (lnl, d1, d2 float64) {
	k, C := e.nStates, e.nCat
	rates := e.M.Rates
	eval := e.M.Eval
	catW := 1.0 / float64(C)
	expbuf := make([]float64, k)
	for i := 0; i < e.nPat; i++ {
		base := i * C * k
		var f, fp, fpp float64
		for c := 0; c < C; c++ {
			r := rates[c]
			for kk := 0; kk < k; kk++ {
				expbuf[kk] = math.Exp(eval[kk] * r * t)
			}
			tab := e.c.sumTab[base+c*k : base+(c+1)*k]
			for kk := 0; kk < k; kk++ {
				lr := eval[kk] * r
				a := tab[kk] * expbuf[kk]
				f += a
				fp += a * lr
				fpp += a * lr * lr
			}
		}
		f *= catW
		fp *= catW
		fpp *= catW
		if f < math.SmallestNonzeroFloat64 {
			f = math.SmallestNonzeroFloat64
		}
		w := e.weights[i]
		lnGamma := math.Log(f) - float64(e.sumTabSc[i])*logScaleFactor
		gp, gpp := fp/f, fpp/f
		q := gammaWeight(lnGamma, e.M.PInv, e.linv[i])
		lnl += w * mixInvariant(lnGamma, e.M.PInv, e.linv[i])
		d1 += w * q * gp
		d2 += w * (q*gpp - q*gp*q*gp)
	}
	return lnl, d1, d2
}

// oracleOptimizeBranch replays OptimizeBranch's pre-hoist sequence on
// the oracle pass — starting-point pass, mathx.Newton over full passes,
// end-point pass — without touching the edge. It returns the
// log-likelihood and length OptimizeBranch must arrive at, the solver
// iterations it must count, and whether any iteration took the d2 ≥ 0
// damped step.
func oracleOptimizeBranch(t *testing.T, e *Engine, edge *tree.Edge) (lnl, length float64, iters int64, damped bool) {
	t.Helper()
	if err := e.prepareSumTable(edge); err != nil {
		t.Fatal(err)
	}
	t0 := edge.Length
	lnl0, _, _ := oracleSumTableValues(e, t0)
	fdf := func(x float64) (float64, float64) {
		iters++
		_, d1, d2 := oracleSumTableValues(e, x)
		if d2 >= 0 {
			damped = true
			return d1, math.NaN()
		}
		return d1, d2
	}
	t1, _ := mathx.Newton(fdf, t0, tree.MinBranchLength, tree.MaxBranchLength, 1e-8, 32)
	lnl1, _, _ := oracleSumTableValues(e, t1)
	if lnl1 >= lnl0 {
		return lnl1, t1, iters, damped
	}
	return lnl0, t0, iters, damped
}

// TestDerivativePassBitIdenticalToOracle pins the hoisted derivative
// pass, the derivative-only Newton passes and the reuse of the
// starting-point derivatives to the per-pattern-exp oracle, bit for bit,
// over every model shape and execution mode the pass specialises on.
func TestDerivativePassBitIdenticalToOracle(t *testing.T) {
	cases := []struct {
		name    string
		dtype   bio.DataType
		cats    int
		pinv    float64
		workers int
	}{
		{"DNA_G4", bio.DNA, 4, -1, 1},
		{"DNA_G4_workers3", bio.DNA, 4, -1, 3},
		{"DNA_G1", bio.DNA, 1, -1, 1},
		{"DNA_G4_I0", bio.DNA, 4, 0, 1},
		{"DNA_G4_I0.2", bio.DNA, 4, 0.2, 1},
		{"DNA_G4_I0.2_workers3", bio.DNA, 4, 0.2, 3},
		{"AA_G4", bio.AA, 4, -1, 1},
	}
	bits := math.Float64bits
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			names := tipNames(10)
			tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			// 3 workers × minPatternsPerWorker patterns, so the
			// multi-worker rows really fan out.
			pats := randomAlignment(t, names, 3*minPatternsPerWorker+40, rng, tc.dtype)
			if tc.workers > 1 && pats.NumPatterns() < tc.workers*minPatternsPerWorker {
				t.Fatalf("only %d patterns: the pass would stay sequential", pats.NumPatterns())
			}
			states := 4
			if tc.dtype == bio.AA {
				states = 20
			}
			freqs := make([]float64, states)
			for i := range freqs {
				freqs[i] = 0.05 + rng.Float64()
			}
			exch := make([]float64, states*(states-1)/2)
			for i := range exch {
				exch[i] = 0.2 + 2*rng.Float64()
			}
			m, err := model.NewGTR(freqs, exch, states)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetGamma(0.7, tc.cats); err != nil {
				t.Fatal(err)
			}
			if tc.pinv >= 0 {
				if err := m.SetInvariant(tc.pinv); err != nil {
					t.Fatal(err)
				}
			}
			e := newEngine(t, tr, pats, m)
			e.SetWorkers(tc.workers)
			defer e.SetWorkers(1)

			edge := tr.Edges[4]
			if err := e.prepareSumTable(edge); err != nil {
				t.Fatal(err)
			}
			for _, bt := range []float64{tree.MinBranchLength, 1e-3, 0.1, 1, tree.MaxBranchLength} {
				wl, w1, w2 := oracleSumTableValues(e, bt)
				gl, g1, g2 := e.sumTableValues(bt, true)
				if bits(gl) != bits(wl) || bits(g1) != bits(w1) || bits(g2) != bits(w2) {
					t.Errorf("t=%v: (%v, %v, %v), oracle (%v, %v, %v)", bt, gl, g1, g2, wl, w1, w2)
				}
				_, g1, g2 = e.sumTableValues(bt, false)
				if bits(g1) != bits(w1) || bits(g2) != bits(w2) {
					t.Errorf("t=%v derivative-only: (%v, %v), oracle (%v, %v)", bt, g1, g2, w1, w2)
				}
			}

			// OptimizeBranch from the tree's own length, from both sides
			// of the bounds (the solver then starts at the clamp, not at
			// t0), and from far up the convex tail where d2 ≥ 0.
			sawDamped := false
			for _, ei := range []int{0, 4, len(tr.Edges) - 1} {
				edge := tr.Edges[ei]
				for _, start := range []float64{edge.Length, 0, 2 * tree.MaxBranchLength, 30} {
					edge.Length = start
					wantLnL, wantLen, wantIters, damped := oracleOptimizeBranch(t, e, edge)
					sawDamped = sawDamped || damped
					before := e.Stats.NewtonIters
					gotLnL, err := e.OptimizeBranch(edge)
					if err != nil {
						t.Fatal(err)
					}
					if bits(gotLnL) != bits(wantLnL) || bits(edge.Length) != bits(wantLen) {
						t.Errorf("edge %d from %v: lnL %v length %v, oracle lnL %v length %v",
							ei, start, gotLnL, edge.Length, wantLnL, wantLen)
					}
					if got := e.Stats.NewtonIters - before; got != wantIters {
						t.Errorf("edge %d from %v: %d Newton iterations counted, oracle ran %d", ei, start, got, wantIters)
					}
				}
			}
			if !sawDamped {
				t.Error("no start exercised the d2 >= 0 damped step")
			}
		})
	}
}

// TestSumTableValuesBeyond32States drives the derivative pass at k = 61,
// past what a fixed 32-entry exponential scratch could index (the
// engine is not tied to the two built-in alphabets' sizes:
// selectKernelSet maps any other k to the generic set).
func TestSumTableValuesBeyond32States(t *testing.T) {
	const k, nCat, nPat = 61, 2, 5
	rng := rand.New(rand.NewSource(3))
	m := &model.Model{States: k, Rates: []float64{0.4, 1.6}, Eval: make([]float64, k)}
	for i := 1; i < k; i++ {
		m.Eval[i] = -rng.Float64() * 2
	}
	e := &Engine{M: m, nPat: nPat, nCat: nCat, nStates: k, workers: 1,
		weights: []float64{1, 2, 1, 3, 1}, linv: make([]float64, nPat),
		sumTabSc: make([]int32, nPat), siteBuf: make([]float64, 3*nPat)}
	e.c = newCompute(e)
	for i := range e.c.sumTab {
		e.c.sumTab[i] = rng.Float64()
	}
	wl, w1, w2 := oracleSumTableValues(e, 0.3)
	gl, g1, g2 := e.sumTableValues(0.3, true)
	if gl != wl || g1 != w1 || g2 != w2 {
		t.Errorf("k=%d: (%v, %v, %v), oracle (%v, %v, %v)", k, gl, g1, g2, wl, w1, w2)
	}
}
