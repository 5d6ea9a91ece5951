package oocphylo

// One benchmark per figure of the paper's evaluation, plus ablations of
// the design choices DESIGN.md calls out. Custom metrics carry the
// figures' actual quantities (miss %, read %, simulated I/O time,
// page-fault counts); ns/op measures the harness itself and is of
// secondary interest. Dimensions are CI-scaled (see DESIGN.md §6);
// cmd/figures reproduces paper-scale runs.

import (
	"math/rand"
	"testing"

	"oocphylo/internal/experiments"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

var benchCfg = experiments.SearchWorkloadConfig{Taxa: 64, Sites: 100, Seed: 42, Rounds: 1}

// BenchmarkFigure2 reproduces the miss-rate comparison: four strategies
// at f in {0.25, 0.50, 0.75} on the search workload.
func BenchmarkFigure2(b *testing.B) {
	for _, strategy := range experiments.StrategyNames {
		for _, f := range []float64{0.25, 0.50, 0.75} {
			name := map[float64]string{0.25: "f25", 0.50: "f50", 0.75: "f75"}[f]
			b.Run(strategy+"/"+name, func(b *testing.B) {
				var miss float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunFigure2(benchCfg, []float64{f}, false)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range res {
						if r.Strategy == strategy {
							miss = 100 * r.Stats.MissRate()
						}
					}
				}
				b.ReportMetric(miss, "miss%")
			})
		}
	}
}

// BenchmarkFigure3 reproduces the read-rate figure: the same runs with
// read skipping enabled; the read% metric is the figure's y axis.
func BenchmarkFigure3(b *testing.B) {
	for _, strategy := range experiments.StrategyNames {
		b.Run(strategy, func(b *testing.B) {
			var miss, read float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure2(benchCfg, []float64{0.25}, true)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Strategy == strategy {
						miss = 100 * r.Stats.MissRate()
						read = 100 * r.Stats.ReadRate()
					}
				}
			}
			b.ReportMetric(miss, "miss%")
			b.ReportMetric(read, "read%")
		})
	}
}

// BenchmarkFigure4 reproduces the f-halving sweep of the Random
// strategy down to five RAM slots.
func BenchmarkFigure4(b *testing.B) {
	var results []experiments.MissRateResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunFigure4(benchCfg, 0.75, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(100*r.Stats.MissRate(), "miss%@m="+itoa(r.Slots))
	}
}

// BenchmarkFigure5 reproduces the paging-versus-out-of-core elapsed
// time comparison across growing ancestral-vector footprints. The
// io metrics are the modelled device times in milliseconds.
func BenchmarkFigure5(b *testing.B) {
	cfg := experiments.Figure5Config{
		Taxa:     48,
		Widths:   []int{256, 1024, 4096},
		RAMBytes: 8 << 20,
		Seed:     42,
	}
	var rows []experiments.Figure5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFigure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		suffix := "@" + itoa(int(r.OverSubscription*100)) + "pct"
		b.ReportMetric(float64(r.StandardIO.Milliseconds()), "paging-io-ms"+suffix)
		b.ReportMetric(float64(r.OOCLRUIO.Milliseconds()), "ooc-io-ms"+suffix)
		b.ReportMetric(float64(r.MajorFaults), "faults"+suffix)
	}
}

// BenchmarkWriteBackPolicy ablates the always-write swap of the paper
// against dirty-only write-back (an extension), reporting the write
// counts on a read-heavy workload.
func BenchmarkWriteBackPolicy(b *testing.B) {
	d, err := sim.NewDataset(sim.Config{Taxa: 48, Sites: 150, GammaAlpha: 0.8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	n := d.Tree.NumInner()
	for _, policy := range []struct {
		name string
		wb   ooc.WriteBackPolicy
	}{{"Always", ooc.WriteBackAlways}, {"DirtyOnly", ooc.WriteBackDirty}} {
		b.Run(policy.name, func(b *testing.B) {
			var writes int64
			for i := 0; i < b.N; i++ {
				mgr, err := ooc.NewManager(ooc.Config{
					NumVectors: n, VectorLen: vecLen,
					Slots:    ooc.SlotsForFraction(0.25, n),
					Strategy: ooc.NewLRU(n), ReadSkipping: true,
					WriteBack: policy.wb,
					Store:     ooc.NewMemStore(n, vecLen),
				})
				if err != nil {
					b.Fatal(err)
				}
				t := d.Tree.Clone()
				e, err := plf.New(t, d.Patterns, d.Model, mgr)
				if err != nil {
					b.Fatal(err)
				}
				// Traversal then an evaluation walk: reads dominate.
				if _, err := e.LogLikelihood(); err != nil {
					b.Fatal(err)
				}
				for _, edge := range t.Edges {
					if _, err := e.LogLikelihoodAt(edge); err != nil {
						b.Fatal(err)
					}
				}
				writes = mgr.Stats().Writes
			}
			b.ReportMetric(float64(writes), "writes")
		})
	}
}

// BenchmarkReadSkipping ablates §3.4 on the full-traversal workload
// (where it is strongest: every vector's first access is a write).
func BenchmarkReadSkipping(b *testing.B) {
	d, err := sim.NewDataset(sim.Config{Taxa: 64, Sites: 150, GammaAlpha: 0.8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	n := d.Tree.NumInner()
	for _, skip := range []bool{false, true} {
		name := "Off"
		if skip {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				mgr, err := ooc.NewManager(ooc.Config{
					NumVectors: n, VectorLen: vecLen,
					Slots:    ooc.SlotsForFraction(0.25, n),
					Strategy: ooc.NewLRU(n), ReadSkipping: skip,
					Store: ooc.NewMemStore(n, vecLen),
				})
				if err != nil {
					b.Fatal(err)
				}
				t := d.Tree.Clone()
				e, err := plf.New(t, d.Patterns, d.Model, mgr)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 3; k++ {
					if err := e.FullTraversal(t.Edges[0]); err != nil {
						b.Fatal(err)
					}
				}
				reads = mgr.Stats().Reads
			}
			b.ReportMetric(float64(reads), "reads")
		})
	}
}

// BenchmarkSearchStandardVsOOC measures the end-to-end slowdown the
// out-of-core indirection itself costs when I/O is free (MemStore):
// the overhead of the getxvector() abstraction.
func BenchmarkSearchStandardVsOOC(b *testing.B) {
	d, err := sim.NewDataset(sim.Config{Taxa: 32, Sites: 120, GammaAlpha: 0.8, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	mkStart := func() *tree.Tree {
		names := make([]string, d.Tree.NumTips)
		for i := range names {
			names[i] = d.Tree.Nodes[i].Name
		}
		t, err := tree.RandomTopology(names, rand.New(rand.NewSource(9)), 0.05, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	b.Run("Standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := mkStart()
			e, err := plf.New(t, d.Patterns, d.Model,
				plf.NewInMemoryProvider(t.NumInner(), vecLen))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := search.New(e, search.Options{MaxRounds: 1}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OOC-f50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := mkStart()
			mgr, err := ooc.NewManager(ooc.Config{
				NumVectors: t.NumInner(), VectorLen: vecLen,
				Slots:    ooc.SlotsForFraction(0.5, t.NumInner()),
				Strategy: ooc.NewLRU(t.NumInner()), ReadSkipping: true,
				Store: ooc.NewMemStore(t.NumInner(), vecLen),
			})
			if err != nil {
				b.Fatal(err)
			}
			e, err := plf.New(t, d.Patterns, d.Model, mgr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := search.New(e, search.Options{MaxRounds: 1}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkPrefetch ablates the §5 prefetching extension on the
// full-traversal workload: the metric is the number of blocking demand
// misses remaining (prefetch hits are misses a prefetch thread would
// overlap with compute).
func BenchmarkPrefetch(b *testing.B) {
	d, err := sim.NewDataset(sim.Config{Taxa: 64, Sites: 150, GammaAlpha: 0.8, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	n := d.Tree.NumInner()
	for _, prefetch := range []bool{false, true} {
		name := "Off"
		if prefetch {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			var misses, hits int64
			for i := 0; i < b.N; i++ {
				mgr, err := ooc.NewManager(ooc.Config{
					NumVectors: n, VectorLen: vecLen,
					Slots:    ooc.SlotsForFraction(0.25, n),
					Strategy: ooc.NewLRU(n),
					Store:    ooc.NewMemStore(n, vecLen),
				})
				if err != nil {
					b.Fatal(err)
				}
				t := d.Tree.Clone()
				e, err := plf.New(t, d.Patterns, d.Model, mgr)
				if err != nil {
					b.Fatal(err)
				}
				e.EnablePrefetch(prefetch)
				for k := 0; k < 3; k++ {
					if err := e.FullTraversal(t.Edges[0]); err != nil {
						b.Fatal(err)
					}
				}
				misses = mgr.Stats().Misses
				hits = mgr.PrefetchStats().Hits
			}
			b.ReportMetric(float64(misses), "demand-misses")
			b.ReportMetric(float64(hits), "prefetch-hits")
		})
	}
}
