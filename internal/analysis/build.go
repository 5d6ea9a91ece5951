package analysis

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"oocphylo/internal/bio"
	"oocphylo/internal/distance"
	"oocphylo/internal/model"
	"oocphylo/internal/parsimony"
	"oocphylo/internal/tree"
)

// Inputs is what an engine is built over: the compressed alignment, the
// model and the tree — fresh from Build, or a checkpoint's restored
// model and tree beside the same patterns.
type Inputs struct {
	Patterns *bio.Patterns
	Model    *model.Model
	Tree     *tree.Tree
}

// Load reads the spec's alignment (inline text or file, PHYLIP or
// FASTA, DNA or protein) and compresses it into site patterns. The
// uncompressed alignment is returned for callers that persist it.
func Load(spec Spec) (*bio.Alignment, *bio.Patterns, error) {
	var r io.Reader
	switch {
	case spec.Alignment != "":
		r = strings.NewReader(spec.Alignment)
	case spec.Path != "":
		f, err := os.Open(spec.Path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	default:
		return nil, nil, fmt.Errorf("analysis: neither an inline alignment nor a path")
	}
	dtype := bio.DNA
	if strings.EqualFold(spec.DataType, "aa") {
		dtype = bio.AA
	}
	read := bio.ReadPhylip
	if strings.EqualFold(spec.Format, "fasta") {
		read = bio.ReadFASTA
	}
	aln, err := read(r, bio.NewAlphabet(dtype))
	if err != nil {
		return nil, nil, err
	}
	pats, err := bio.Compress(aln)
	if err != nil {
		return nil, nil, err
	}
	return aln, pats, nil
}

// Build constructs the spec's model and starting tree over pats. A
// parsimony or NJ start gives up with ctx's error once ctx is done.
func Build(ctx context.Context, spec Spec, pats *bio.Patterns) (*Inputs, error) {
	m, err := newModel(spec, pats)
	if err != nil {
		return nil, err
	}
	t, err := newTree(ctx, spec, pats)
	if err != nil {
		return nil, err
	}
	return &Inputs{Patterns: pats, Model: m, Tree: t}, nil
}

func newModel(spec Spec, pats *bio.Patterns) (*model.Model, error) {
	freqs := pats.BaseFrequencies()
	if spec.UniformFreqs {
		for i := range freqs {
			freqs[i] = 1 / float64(len(freqs))
		}
	}
	var m *model.Model
	var err error
	switch strings.ToUpper(spec.Model) {
	case "JC", "POISSON":
		m, err = model.NewJC(pats.Alphabet.States)
	case "PAML":
		if pats.Alphabet.States != 20 {
			return nil, fmt.Errorf("analysis: model PAML needs amino-acid data")
		}
		if spec.AAModel == "" {
			return nil, fmt.Errorf("analysis: model PAML requires an empirical matrix file (-aamodel <file.dat>)")
		}
		f, ferr := os.Open(spec.AAModel)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close()
		m, err = model.ReadPAML(f, strings.ToUpper(
			strings.TrimSuffix(filepath.Base(spec.AAModel), filepath.Ext(spec.AAModel))))
	case "K80":
		m, err = model.NewK80(spec.Kappa)
	case "HKY":
		m, err = model.NewHKY(freqs, spec.Kappa)
	case "GTR":
		if pats.Alphabet.States != 4 {
			return nil, fmt.Errorf("analysis: GTR exchangeabilities default to DNA; use POISSON for protein data")
		}
		// Unit exchangeabilities and empirical frequencies (F81-like);
		// the search's model optimisation moves the rates from there.
		m, err = model.NewGTR(freqs, []float64{1, 1, 1, 1, 1, 1}, 4)
	default:
		return nil, fmt.Errorf("analysis: unknown model %q", spec.Model)
	}
	if err != nil {
		return nil, err
	}
	if spec.Alpha > 0 && spec.Cats > 1 {
		if err := m.SetGamma(spec.Alpha, spec.Cats); err != nil {
			return nil, err
		}
	}
	if spec.PInv > 0 {
		if err := m.SetInvariant(spec.PInv); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newTree parses the spec's Newick (inline or file) or constructs the
// starting topology it names.
func newTree(ctx context.Context, spec Spec, pats *bio.Patterns) (*tree.Tree, error) {
	newick := spec.Newick
	if newick == "" && spec.TreePath != "" {
		data, err := os.ReadFile(spec.TreePath)
		if err != nil {
			return nil, err
		}
		newick = string(data)
	}
	if newick == "" {
		return startTree(ctx, spec.StartTree, pats, spec.Seed)
	}
	return tree.ParseNewick(newick)
}

// startTree constructs a starting topology: randomised-stepwise-
// addition parsimony (RAxML's default), neighbor joining on JC
// distances, or a random topology.
func startTree(ctx context.Context, kind string, pats *bio.Patterns, seed int64) (*tree.Tree, error) {
	switch strings.ToLower(kind) {
	case "parsimony", "mp":
		return parsimony.StepwiseAddition(ctx, pats, rand.New(rand.NewSource(seed)))
	case "nj":
		return distance.NJTree(ctx, pats)
	case "random", "rand":
		return tree.RandomTopology(pats.Names, rand.New(rand.NewSource(seed)), 0.05, 0.15)
	}
	return nil, fmt.Errorf("analysis: unknown starting tree kind %q (want parsimony, nj or random)", kind)
}
