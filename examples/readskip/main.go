// Readskip: quantify the read-skipping optimisation (paper §3.4). The
// same workloads run twice — with and without read skipping — and the
// example reports how many file reads the write-intent declaration
// eliminates, separately for full tree traversals (every vector's first
// access is a write: nearly all reads vanish) and for a branch-smoothing
// workload (a mix of reads and writes, where the paper reports >50% of
// reads eliminated).
//
// A final section re-runs the traversal workload with the asynchronous
// I/O pipeline (paper §5 future work) and shows that moving the same
// reads and write-backs onto background goroutines leaves the
// likelihood and every miss counter untouched.
package main

import (
	"fmt"
	"log"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/sim"
)

func run(skip, prefetch, async bool, workload string) (ooc.Stats, ooc.PipelineStats, float64) {
	dataset, err := sim.NewDataset(sim.Config{Taxa: 64, Sites: 400, GammaAlpha: 0.9, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	t := dataset.Tree.Clone()
	n := t.NumInner()
	vecLen := plf.VectorLength(dataset.Model, dataset.Patterns.NumPatterns())
	manager, err := ooc.NewManager(ooc.Config{
		NumVectors:   n,
		VectorLen:    vecLen,
		Slots:        ooc.SlotsForFraction(0.25, n),
		Strategy:     ooc.NewLRU(n),
		ReadSkipping: skip,
		Store:        ooc.NewMemStore(n, vecLen),
		Async:        async,
	})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := plf.New(t, dataset.Patterns, dataset.Model, manager)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's full-width records, so the pool is its m slots and
	// pages as in §3.4 (records of this data fit a quarter's bytes).
	if err := engine.SetKernel(plf.KernelGeneric); err != nil {
		log.Fatal(err)
	}
	engine.EnablePrefetch(prefetch)
	var lnl float64
	switch workload {
	case "traversals":
		for i := 0; i < 5; i++ {
			if err := engine.FullTraversal(t.Edges[0]); err != nil {
				log.Fatal(err)
			}
			if lnl, err = engine.LogLikelihoodAt(t.Edges[0]); err != nil {
				log.Fatal(err)
			}
		}
	case "smoothing":
		if lnl, err = search.New(engine, search.Options{}).SmoothBranches(3, 1e-3); err != nil {
			log.Fatal(err)
		}
	}
	if err := manager.Close(); err != nil {
		log.Fatal(err)
	}
	return manager.Stats(), manager.PipelineStats(), lnl
}

func main() {
	for _, workload := range []string{"traversals", "smoothing"} {
		plain, _, lnlA := run(false, false, false, workload)
		skipped, _, lnlB := run(true, false, false, workload)
		if lnlA != lnlB {
			log.Fatalf("%s: read skipping changed the likelihood (%v vs %v)!", workload, lnlA, lnlB)
		}
		fmt.Printf("%-11s  requests %6d  misses %5d (%.2f%%)\n",
			workload, plain.Requests, plain.Misses, 100*plain.MissRate())
		fmt.Printf("             reads without skipping: %5d (%.2f%% of requests)\n",
			plain.Reads, 100*plain.ReadRate())
		fmt.Printf("             reads with    skipping: %5d (%.2f%% of requests)\n",
			skipped.Reads, 100*skipped.ReadRate())
		saved := plain.Reads - skipped.Reads
		fmt.Printf("             reads eliminated: %d of %d (%.1f%%), lnL unchanged (%.2f)\n\n",
			saved, plain.Reads, 100*float64(saved)/float64(plain.Reads), lnlA)
	}

	// Async pipeline: same traversal workload with plan-driven prefetch,
	// I/O on background goroutines in the second run. The decisions stay
	// on the compute thread either way, so the counters and the
	// likelihood must not move at all.
	syncStats, _, lnlSync := run(true, true, false, "traversals")
	asyncStats, pipe, lnlAsync := run(true, true, true, "traversals")
	if lnlSync != lnlAsync {
		log.Fatalf("async pipeline changed the likelihood (%v vs %v)!", lnlSync, lnlAsync)
	}
	if syncStats != asyncStats {
		log.Fatalf("async pipeline changed the manager counters!\n sync %+v\nasync %+v", syncStats, asyncStats)
	}
	fmt.Printf("async        %d fetches + %d writes moved to background goroutines\n",
		pipe.FetchesQueued, pipe.WritesQueued)
	fmt.Printf("             counters identical, lnL unchanged (%.2f)\n", lnlAsync)
}
