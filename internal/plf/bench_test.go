package plf

import (
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// benchSetup builds an engine over an in-memory provider.
func benchSetup(b *testing.B, taxa, sites int, gamma bool, dtype bio.DataType) (*Engine, *tree.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	names := tipNames(taxa)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	pats := randomAlignment(b, names, sites, rng, dtype)
	m := randomModel(b, rng, dtype, gamma)
	prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns()))
	e, err := New(tr, pats, m, prov)
	if err != nil {
		b.Fatal(err)
	}
	return e, tr
}

// BenchmarkFullTraversalDNA runs full traversals over random columns,
// where sites barely repeat above the cherries, and over data simulated
// down its own tree (built as derivBenchSetup builds it), where most
// sites repeat below most nodes. computed-fraction is the share of the
// site-newviews that were computed rather than shared; patterns/s
// counts every site-newview, computed or not.
func BenchmarkFullTraversalDNA(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		e, tr := benchSetup(b, 64, 500, true, bio.DNA)
		benchFullTraversal(b, e, tr.Edges[0])
	})
	b.Run("sim", func(b *testing.B) {
		ds, err := sim.NewDataset(sim.Config{Taxa: 64, Sites: 500, GammaAlpha: 0.7, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		benchFullTraversal(b, newEngine(b, ds.Tree, ds.Patterns, ds.Model), ds.Tree.Edges[0])
	})
}

func benchFullTraversal(b *testing.B, e *Engine, edge *tree.Edge) {
	nv, cls := e.Stats.Newviews, e.Stats.ClassesComputed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.FullTraversal(edge); err != nil {
			b.Fatal(err)
		}
	}
	sitesPerOp := float64(e.nPat * e.T.NumInner())
	b.ReportMetric(sitesPerOp*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
	b.ReportMetric(float64(e.Stats.ClassesComputed-cls)/float64((e.Stats.Newviews-nv)*int64(e.nPat)), "computed-fraction")
}

func BenchmarkFullTraversalAA(b *testing.B) {
	e, tr := benchSetup(b, 32, 100, true, bio.AA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.FullTraversal(tr.Edges[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	e, tr := benchSetup(b, 64, 500, true, bio.DNA)
	if _, err := e.LogLikelihood(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.evaluate(tr.Edges[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// derivBenchRows are the model shapes the derivative path specialises
// on: state count, the width of the exponential tables.
var derivBenchRows = []struct {
	name        string
	aa          bool
	taxa, sites int
}{
	{"DNA_f64", false, 64, 500},
	{"AA_f64", true, 32, 150},
}

// derivBenchSetup builds an engine on data simulated down its own tree
// under Γ4, with the sum table of one inner branch built. A random
// alignment would not do here: with no signal every branch's optimum
// runs to the length cap and Newton spends its whole iteration budget,
// which no search does.
func derivBenchSetup(b *testing.B, aa bool, taxa, sites int) (*Engine, *tree.Edge) {
	b.Helper()
	ds, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: sites, GammaAlpha: 0.7, Seed: 7, AA: aa})
	if err != nil {
		b.Fatal(err)
	}
	e := newEngine(b, ds.Tree, ds.Patterns, ds.Model)
	edge := ds.Tree.Edges[6]
	if err := e.prepareSumTable(edge); err != nil {
		b.Fatal(err)
	}
	return e, edge
}

// BenchmarkOptimizeBranch measures one whole branch optimisation —
// traversal check, sum table, Newton passes — restarted from a third
// of the generating length every iteration, so each one runs the same
// solver trajectory (about seven iterations, a search's typical call).
func BenchmarkOptimizeBranch(b *testing.B) {
	for _, r := range derivBenchRows {
		b.Run(r.name, func(b *testing.B) {
			e, edge := derivBenchSetup(b, r.aa, r.taxa, r.sites)
			start := edge.Length / 3
			iters := e.Stats.NewtonIters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edge.Length = start
				if _, err := e.OptimizeBranch(edge); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.Stats.NewtonIters-iters)/float64(b.N), "newton-iters/op")
		})
	}
}

// BenchmarkSumTableValues isolates one derivative pass over a built sum
// table: the full pass OptimizeBranch prices its end points with, and
// the derivative-only pass its Newton iterations run.
func BenchmarkSumTableValues(b *testing.B) {
	for _, r := range derivBenchRows {
		for _, wantLnL := range []bool{true, false} {
			name := r.name + "/full"
			if !wantLnL {
				name = r.name + "/derivs"
			}
			b.Run(name, func(b *testing.B) {
				e, _ := derivBenchSetup(b, r.aa, r.taxa, r.sites)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink, _, _ = e.sumTableValues(0.05+float64(i&7)*0.01, wantLnL)
				}
			})
		}
	}
}

var benchSink float64

func BenchmarkPartialTraversalWalk(b *testing.B) {
	// Evaluating every edge in sequence: the partial-traversal fast path.
	e, tr := benchSetup(b, 64, 300, true, bio.DNA)
	if _, err := e.LogLikelihood(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, edge := range tr.Edges {
			if _, err := e.LogLikelihoodAt(edge); err != nil {
				b.Fatal(err)
			}
		}
	}
}
