package plf

import (
	"fmt"
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// The buffer-recycling contract: once an engine is warm, the traversal,
// evaluate and derivative entry points allocate nothing. Kernel
// arguments, parallel-for bodies, the traversal plan, the site-class
// pair table and the Newton objective are all engine-owned, so
// steady-state likelihood work never touches the garbage collector.
// (Cold paths — first traversal, P-matrix cache fills at new branch
// lengths — may allocate; that is cache population, not per-call
// garbage.)
func TestHotPathAllocs(t *testing.T) {
	for _, dtype := range []bio.DataType{bio.DNA, bio.AA} {
		t.Run(fmt.Sprintf("%v_f64", dtype), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			names := tipNames(16)
			tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			sites := 500
			if dtype == bio.AA {
				sites = 150
			}
			pats := randomAlignment(t, names, sites, rng, dtype)
			m := randomModel(t, rng, dtype, true)
			e := newEngine(t, tr, pats, m)
			edge := e.T.Edges[0]

			// Warm every path once: traversal, evaluation, sum table,
			// Newton. After this the caches hold everything the steady
			// state needs.
			if _, err := e.LogLikelihoodAt(edge); err != nil {
				t.Fatal(err)
			}
			if _, err := e.EvaluateAtLength(edge, 0.1); err != nil {
				t.Fatal(err)
			}
			if _, err := e.OptimizeBranch(edge); err != nil {
				t.Fatal(err)
			}

			checks := []struct {
				name string
				fn   func()
			}{
				{"FullTraversal", func() { e.FullTraversal(edge) }},
				{"LogLikelihoodAt", func() { e.LogLikelihoodAt(edge) }},
				{"EvaluateAtLength", func() { e.EvaluateAtLength(edge, 0.1) }},
				{"OptimizeBranch", func() { e.OptimizeBranch(edge) }},
				{"sumTableValues", func() { e.sumTableValues(0.05, true) }},
				{"sumTableValues derivative-only", func() { e.sumTableValues(0.05, false) }},
			}
			for _, c := range checks {
				if n := testing.AllocsPerRun(100, c.fn); n != 0 {
					t.Errorf("%s: %v allocations per warm call, want 0", c.name, n)
				}
			}
		})
	}
}
