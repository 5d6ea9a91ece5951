package plf

import (
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// TestParallelBitIdentical is the determinism contract of the parallel
// kernels: since workers fill per-pattern scratch and reductions run
// sequentially in pattern order, every worker count must produce
// bit-identical likelihoods, derivatives and optimised branch lengths.
func TestParallelBitIdentical(t *testing.T) {
	build := func() (*Engine, *tree.Tree) {
		rng := rand.New(rand.NewSource(71))
		names := tipNames(24)
		tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pats := randomAlignment(t, names, 2200, rng, bio.DNA) // above the fan-out threshold
		m := randomModel(t, rng, bio.DNA, true)
		prov := NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns()))
		e, err := New(tr, pats, m, prov)
		if err != nil {
			t.Fatal(err)
		}
		return e, tr
	}

	type outcome struct {
		lnl, d1, d2, opt float64
	}
	run := func(workers int) outcome {
		e, tr := build()
		e.SetWorkers(workers)
		lnl, err := e.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		edge := tr.Edges[2]
		if err := e.Traverse(edge); err != nil {
			t.Fatal(err)
		}
		if err := e.buildSumTable(edge); err != nil {
			t.Fatal(err)
		}
		_, d1, d2 := e.sumTableValues(edge.Length, true)
		if _, err := e.OptimizeBranch(edge); err != nil {
			t.Fatal(err)
		}
		return outcome{lnl, d1, d2, edge.Length}
	}

	ref := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		if got != ref {
			t.Errorf("workers=%d: %+v differs from sequential %+v", w, got, ref)
		}
	}
}

func TestSetWorkersClamps(t *testing.T) {
	e := &Engine{}
	e.SetWorkers(-3)
	if e.Workers() != 1 {
		t.Error("negative worker counts must clamp to 1")
	}
	e.SetWorkers(7)
	if e.Workers() != 7 {
		t.Error("SetWorkers lost the value")
	}
}

func TestParallelForSmallNStaysSequential(t *testing.T) {
	e := &Engine{}
	e.SetWorkers(8)
	calls := 0
	e.parallelFor(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("small n must be one block, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("small n should make exactly one call, made %d", calls)
	}
}

func TestParallelForCoversRangeExactly(t *testing.T) {
	e := &Engine{}
	e.SetWorkers(4)
	n := 4 * minPatternsPerWorker
	seen := make([]int32, n)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	e.parallelFor(n, func(lo, hi int) {
		<-mu
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu <- struct{}{}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func BenchmarkNewviewParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(itoa(w)+"workers", func(b *testing.B) {
			e, tr := benchSetup(b, 32, 20000, true, bio.DNA)
			e.SetWorkers(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.FullTraversal(tr.Edges[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}
