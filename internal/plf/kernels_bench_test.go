package plf

import (
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/tree"
)

// benchSetupDNA4 builds the kernel-ablation benchmark engine: DNA,
// GTR+Γ4 (the k=4, c=4 configuration the specialised kernels target),
// one worker, in-memory provider.
func benchSetupDNA4(b *testing.B, mode string) (*Engine, *tree.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	names := tipNames(64)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	pats := randomAlignment(b, names, 2000, rng, bio.DNA)
	m, err := model.NewGTR([]float64{0.27, 0.23, 0.24, 0.26},
		[]float64{1.2, 3.1, 0.9, 1.1, 3.4, 1.0}, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetGamma(0.7, 4); err != nil {
		b.Fatal(err)
	}
	prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns()))
	e, err := New(tr, pats, m, prov)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetKernel(mode); err != nil {
		b.Fatal(err)
	}
	return e, tr
}

// BenchmarkNewviewDNA4 measures the newview hot path (full traversals)
// under each kernel mode; the acceptance criterion compares the two.
func BenchmarkNewviewDNA4(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode, func(b *testing.B) {
			e, tr := benchSetupDNA4(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.FullTraversal(tr.Edges[0]); err != nil {
					b.Fatal(err)
				}
			}
			sitesPerOp := float64(e.nPat * tr.NumInner())
			b.ReportMetric(sitesPerOp*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
		})
	}
}

// BenchmarkEvaluateDNA4 measures the evaluate kernel alone (vectors
// already valid) under each kernel mode.
func BenchmarkEvaluateDNA4(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode, func(b *testing.B) {
			e, tr := benchSetupDNA4(b, mode)
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
		})
	}
}

// BenchmarkSumTableDNA4 measures the derivative sum-table kernel under
// each kernel mode.
func BenchmarkSumTableDNA4(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode, func(b *testing.B) {
			e, tr := benchSetupDNA4(b, mode)
			if _, err := e.LogLikelihood(); err != nil {
				b.Fatal(err)
			}
			edge := tr.Edges[3]
			if err := e.Traverse(edge); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.buildSumTable(edge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSetupAA20 builds the protein-ablation engine: 64 taxa, GTR-class
// k=20 model with Γ4 rates, at the given kernel mode.
func benchSetupAA20(b *testing.B, mode string) (*Engine, *tree.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	names := tipNames(64)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	pats := randomAlignment(b, names, 500, rng, bio.AA)
	m, err := model.NewJC(20)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetGamma(0.7, 4); err != nil {
		b.Fatal(err)
	}
	prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns()))
	e, err := New(tr, pats, m, prov)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetKernel(mode); err != nil {
		b.Fatal(err)
	}
	return e, tr
}

// BenchmarkNewviewAA20 measures protein full traversals per kernel mode;
// the acceptance criterion compares auto (the aa20 set) against generic.
func BenchmarkNewviewAA20(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode+"_f64", func(b *testing.B) {
			e, tr := benchSetupAA20(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.FullTraversal(tr.Edges[0]); err != nil {
					b.Fatal(err)
				}
			}
			sitesPerOp := float64(e.nPat * tr.NumInner())
			b.ReportMetric(sitesPerOp*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
		})
	}
}

// BenchmarkEvaluateAA20 measures the protein evaluate kernel alone.
func BenchmarkEvaluateAA20(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode+"_f64", func(b *testing.B) {
			e, tr := benchSetupAA20(b, mode)
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
		})
	}
}

// BenchmarkSumTableAA20 measures the protein derivative sum-table kernel.
func BenchmarkSumTableAA20(b *testing.B) {
	for _, mode := range []string{KernelGeneric, KernelAuto} {
		b.Run(mode+"_f64", func(b *testing.B) {
			e, tr := benchSetupAA20(b, mode)
			if _, err := e.LogLikelihood(); err != nil {
				b.Fatal(err)
			}
			edge := tr.Edges[3]
			if err := e.Traverse(edge); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.buildSumTable(edge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
