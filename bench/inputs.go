package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// gammaAlpha is the Γ4 shape every workload simulates and evaluates
// under (the value the repo's experiments use).
const gammaAlpha = 0.8

// inputs is everything a workload receives: the program sees only
// these generated values, never the seed.
type inputs struct {
	phylip string        // the simulated alignment as PHYLIP text
	newick string        // the generating tree
	pats   *bio.Patterns // parsed back from phylip and compressed
}

// shapeSeed draws every tree shape and branch length. What an op costs
// depends on the shape of its tree far more than on anything a change
// to the program would touch — between two Yule trees of one size the
// daemon's throughput differs by a quarter — so the shapes are pinned
// and -seed draws what is left: the sequences and the order of the ops.
const shapeSeed = 2011

// newInputs evolves a taxa × sites DNA alignment, drawn from seed, down
// the pinned Yule tree of that size, then round-trips it through the
// PHYLIP writer and parser — the path a user's file takes, and the only
// form the daemon accepts.
func newInputs(taxa, sites int, seed int64) (*inputs, error) {
	// One site is enough to get the simulator's tree and model.
	d, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: 1, GammaAlpha: gammaAlpha, Seed: shapeSeed})
	if err != nil {
		return nil, err
	}
	aln, err := sim.Evolve(d.Tree, d.Model, sites, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := bio.WritePhylip(&sb, aln); err != nil {
		return nil, err
	}
	if aln, err = bio.ReadPhylip(strings.NewReader(sb.String()), bio.NewAlphabet(bio.DNA)); err != nil {
		return nil, err
	}
	pats, err := bio.Compress(aln)
	if err != nil {
		return nil, err
	}
	return &inputs{phylip: sb.String(), newick: tree.WriteNewick(d.Tree), pats: pats}, nil
}

// parseTree returns a fresh tree in the parse representation. The
// daemon normalises its session tree the same way, and likelihood bits
// depend on edge and adjacency order, so every arm must walk this
// representation for the bit-for-bit cross-check to be meaningful.
func (in *inputs) parseTree() (*tree.Tree, error) { return tree.ParseNewick(in.newick) }

// newModel builds GTR+Γ4 exactly as the daemon's session config
// {Model: "GTR", Alpha: gammaAlpha, Cats: 4} does: empirical base
// frequencies, unit exchangeabilities.
func (in *inputs) newModel() (*model.Model, error) {
	m, err := model.NewGTR(in.pats.BaseFrequencies(), []float64{1, 1, 1, 1, 1, 1}, 4)
	if err != nil {
		return nil, err
	}
	if err := m.SetGamma(gammaAlpha, 4); err != nil {
		return nil, err
	}
	return m, nil
}

// ramEngine builds a single-worker in-RAM engine on t.
func (in *inputs) ramEngine(t *tree.Tree, kernel string) (*plf.Engine, error) {
	m, err := in.newModel()
	if err != nil {
		return nil, err
	}
	e, err := plf.New(t, in.pats, m, plf.NewInMemoryProvider(t.NumInner(), plf.VectorLength(m, in.pats.NumPatterns())))
	if err != nil {
		return nil, err
	}
	if err := e.SetKernel(kernel); err != nil {
		return nil, err
	}
	return e, nil
}

// edgeCycle draws the seeded edge sequence the ops walk; op i
// evaluates at edge cycle[i % len(cycle)].
func edgeCycle(seed int64, numEdges, length int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6f6f63)) // decorrelate from the simulator's stream
	cycle := make([]int, length)
	for i := range cycle {
		cycle[i] = rng.Intn(numEdges)
	}
	return cycle
}

// referenceBits walks cycle on a second in-RAM engine forced onto the
// generic kernels, with partial traversals, and returns the bit
// pattern of lnL at each edge. The measured arms run the specialised
// kernels with full traversals (trav-*) or behind the daemon
// (serve-remote), so equal bits cross-check kernels, traversal
// planning, the out-of-core manager and the service at once.
func referenceBits(in *inputs, cycle []int) ([]uint64, error) {
	t, err := in.parseTree()
	if err != nil {
		return nil, err
	}
	e, err := in.ramEngine(t, plf.KernelGeneric)
	if err != nil {
		return nil, err
	}
	bits := make([]uint64, len(cycle))
	for i, ei := range cycle {
		lnl, err := e.LogLikelihoodAt(t.Edges[ei])
		if err != nil {
			return nil, fmt.Errorf("reference op %d: %w", i, err)
		}
		bits[i] = math.Float64bits(lnl)
	}
	return bits, nil
}
