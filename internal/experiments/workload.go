package experiments

import (
	"context"
	"math/rand"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// workload is what every arm of one experiment shares: a simulated
// dataset and the tree each arm starts from — the simulation's own tree
// for the traversal workloads, a random topology for a search (from the
// true tree there would be nothing to find).
type workload struct {
	seed int64
	data *sim.Dataset
	tree *tree.Tree
}

// pagingFraction is the memory fraction f of the traversal ablations
// (recovery, timeline, obs overhead): tight enough that every traversal
// pages.
const pagingFraction = 0.25

// gammaAlpha is the rate heterogeneity every dataset is simulated with
// (Γ4, like the paper's runs).
const gammaAlpha = 0.8

// newWorkload simulates the dataset cfg sizes and seeds.
func newWorkload(cfg sim.Config, randomStart bool) (*workload, error) {
	cfg.GammaAlpha = gammaAlpha
	d, err := sim.NewDataset(cfg)
	if err != nil {
		return nil, err
	}
	w := &workload{seed: cfg.Seed, data: d, tree: d.Tree}
	if randomStart {
		names := make([]string, d.Tree.NumTips)
		for i := range names {
			names[i] = d.Tree.Nodes[i].Name
		}
		w.tree, err = tree.RandomTopology(names, rand.New(rand.NewSource(cfg.Seed+1)), 0.05, 0.15)
	}
	return w, err
}

// arm is one configuration of a workload, stated the way an oocraxml
// user states it: a RAM quota, a replacement strategy, a store.
// Anything an arm cannot say here the product cannot run.
type arm struct {
	// Fraction is the paper's f: the quota is round(f·n) vectors' worth
	// of bytes. Bytes states the quota itself, like -L. Both zero (or a
	// quota covering every vector) runs in RAM.
	Fraction float64
	Bytes    int64
	// Strategy defaults to LRU; Seed (default: the workload's seed + 1)
	// drives only the Random strategy.
	Strategy string
	Seed     int64

	Kernel  string
	Workers int

	NoReadSkipping bool

	// Stack is the store; Open supplies its geometry. The zero value is
	// a temp file.
	Stack    ooc.StackSpec
	Registry *obs.Registry
}

// open brings a to life over a private clone of the workload's tree,
// through the same analysis.Size and analysis.Open the CLI and the
// daemon use.
func (w *workload) open(a arm) (*analysis.Run, error) {
	in := &analysis.Inputs{Patterns: w.data.Patterns, Model: w.data.Model, Tree: w.tree.Clone()}
	spec := analysis.Spec{
		Strategy: a.Strategy, Seed: a.Seed,
		Workers: a.Workers, Kernel: a.Kernel,
	}
	if spec.Seed == 0 {
		spec.Seed = w.seed + 1
	}
	spec.Fill()
	sz, err := analysis.Size(spec, in)
	if err != nil {
		return nil, err
	}
	if a.Fraction > 0 {
		a.Bytes = int64(ooc.SlotsForFraction(a.Fraction, sz.NumVectors)) * sz.VecBytes
	}
	if a.Bytes > 0 {
		spec.MemLimit = a.Bytes
		if sz, err = analysis.Size(spec, in); err != nil {
			return nil, err
		}
	}
	// The quota buys the paper's m slots with the writer's buffers on
	// top (PipelineBytes), so the store counters repeat in a fixed order.
	r, err := analysis.Open(context.Background(), spec, analysis.Options{
		NoReadSkipping: a.NoReadSkipping,
		Stack:          a.Stack,
		Registry:       a.Registry,
	}, in, sz, sz.Quota+ooc.PipelineBytes(sz.VecLen))
	if err != nil {
		return nil, err
	}
	if opened != nil {
		opened(a, r)
	}
	return r, nil
}

// slotGrant is the grant that buys an arm's live pool exactly slots
// vectors, as open's does.
func slotGrant(r *analysis.Run, slots int) int64 {
	return int64(slots)*r.Sizing.VecBytes + ooc.PipelineBytes(r.Sizing.VecLen)
}

// opened, when a test sets it, is shown every run open brings to life.
var opened func(arm, *analysis.Run)

// run opens a, hands the live run to body and closes it. The closed run
// comes back for its counters; body's error wins over Close's.
func (w *workload) run(a arm, body func(*analysis.Run) error) (*analysis.Run, error) {
	r, err := w.open(a)
	if err != nil {
		return nil, err
	}
	err = body(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return r, err
}

// memStore is the medium of the arms that count I/O rather than time
// it: the workload's vectors at f64, in RAM.
func (w *workload) memStore() ooc.Store {
	return ooc.NewMemStore(w.tree.NumInner(), plf.VectorLength(w.data.Model, w.data.Patterns.NumPatterns()))
}

// searchWorkload is the Figures 2-4 job: a lazy-SPR search from the
// engine's tree.
func searchWorkload(e *plf.Engine, cfg SearchWorkloadConfig) (float64, error) {
	sr, err := search.New(e, search.Options{SPRRadius: cfg.SPRRadius, MaxRounds: cfg.Rounds}).Run()
	if err != nil {
		return 0, err
	}
	return sr.LnL, nil
}

// fullTraversalWorkload runs k full tree traversals plus an evaluation,
// returning the final log-likelihood and the measured compute time.
func fullTraversalWorkload(e *plf.Engine, k int) (float64, time.Duration, error) {
	startT := time.Now()
	var lnl float64
	for i := 0; i < k; i++ {
		if err := e.FullTraversal(e.T.Edges[0]); err != nil {
			return 0, 0, err
		}
		var err error
		lnl, err = e.LogLikelihoodAt(e.T.Edges[0])
		if err != nil {
			return 0, 0, err
		}
	}
	return lnl, time.Since(startT), nil
}

// edgeSweepWorkload is the recovery ablation's access pattern: one full
// traversal, then per round a likelihood evaluation at every second
// edge. Unlike the pure full-traversal workload (where read skipping
// plus post-order locality means vectors are almost never read back),
// the edge hops constantly re-orient subtrees and fault stored vectors
// in with read intent — exactly the path where torn writes and bit
// flips must be detected and healed.
func edgeSweepWorkload(e *plf.Engine, rounds int) (float64, error) {
	if err := e.FullTraversal(e.T.Edges[0]); err != nil {
		return 0, err
	}
	var lnl float64
	for s := 0; s < rounds; s++ {
		for i := 0; i < len(e.T.Edges); i += 2 {
			l, err := e.LogLikelihoodAt(e.T.Edges[i])
			if err != nil {
				return 0, err
			}
			lnl = l
		}
	}
	return lnl, nil
}
