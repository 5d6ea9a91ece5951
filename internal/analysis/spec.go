// Package analysis brings a likelihood analysis to life. The one-shot
// CLI and the daemon's sessions both describe WHAT they analyse in a
// Spec and HOW the run behaves in an Options, and both go through the
// same three steps:
//
//	Load + Build   spec → alignment patterns, model, starting tree
//	Size           vector geometry, in-RAM need, quota, out-of-core?
//	Open           provider + engine, live, behind one Close
//
// Size is its own step so the daemon can run admission between sizing
// and opening; a resumed run replaces Build with a checkpoint's
// Restore and enters at Size. The rules every caller used to re-derive
// live here once: bytes → slots (ooc.SlotsForBytes, store overhead
// charged), the replacement strategy is built before the fits-in-RAM
// decision so a mistyped name always fails, the kernel is chosen before
// the engine is instrumented, an out-of-core run is pipelined with
// one-step prefetch and its spare write buffers are charged before the
// slots, and Close tears down engine → manager → store stack.
package analysis

import (
	"fmt"

	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
)

// MaxWorkers caps Spec.Workers. Each worker is a goroutine the engine
// starts at open, and a pass splits its patterns among them, so far
// past a machine's cores more only cost memory.
const MaxWorkers = 256

// Spec describes what an analysis is: data, model, tree, memory quota.
// It is the daemon's session-creation document (service.SessionConfig
// is this type), persisted in park checkpoints, and what the CLI's
// analysis flags bind into.
type Spec struct {
	// Name identifies a daemon session in URLs and on the /debug
	// endpoint. At most 64 letters, digits and '_' (it names files on
	// disk and metric families). Unused by one-shot runs.
	Name string `json:"name"`

	// Alignment is the inline alignment text; Path is a file instead
	// (server-side for a session). Exactly one must be set.
	Alignment string `json:"alignment,omitempty"`
	Path      string `json:"path,omitempty"`
	// Format is "phylip" (default) or "fasta".
	Format string `json:"format,omitempty"`
	// DataType is "dna" (default) or "aa".
	DataType string `json:"data_type,omitempty"`

	// Model selects the substitution model: JC, K80, HKY, GTR (default)
	// for DNA; POISSON, or PAML with AAModel, for protein.
	Model string `json:"model,omitempty"`
	// AAModel is the empirical matrix file (PAML .dat) for Model PAML.
	// It never travels: a file path means nothing on another host.
	AAModel string `json:"-"`
	// Kappa is the K80/HKY transition/transversion ratio (default 2).
	Kappa float64 `json:"kappa,omitempty"`
	// Alpha enables Γ rate heterogeneity when > 0, over Cats categories
	// (default 4).
	Alpha float64 `json:"alpha,omitempty"`
	Cats  int     `json:"cats,omitempty"`
	// PInv is the +I invariant-sites proportion (0 = disabled).
	PInv float64 `json:"pinv,omitempty"`
	// UniformFreqs uses uniform instead of empirical base frequencies.
	UniformFreqs bool `json:"uniform_freqs,omitempty"`

	// Newick is the starting/fixed tree; TreePath a file instead; when
	// both are empty StartTree picks the construction ("parsimony"
	// default, "nj" or "random", seeded by Seed).
	Newick    string `json:"newick,omitempty"`
	TreePath  string `json:"tree_path,omitempty"`
	StartTree string `json:"start_tree,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	// MemLimit is the ancestral-vector RAM quota in bytes — the paper's
	// -L. 0, or a quota covering every vector, runs in RAM; otherwise the
	// vectors live behind an out-of-core manager (whose slot pool the
	// daemon resizes to keep all tenants inside its global budget).
	MemLimit int64 `json:"mem_limit,omitempty"`
	// Strategy is the out-of-core replacement strategy (random, lru
	// (default), lfu, topological).
	Strategy string `json:"strategy,omitempty"`

	// Workers sets the PLF kernel worker goroutines (default 1, at most
	// MaxWorkers; results are identical for any value). Kernel defaults
	// to auto.
	Workers int    `json:"workers,omitempty"`
	Kernel  string `json:"kernel,omitempty"`
}

// Fill applies the defaults in place to a spec that arrived as a
// document; CLI flags carry the same values as their flag defaults.
func (c *Spec) Fill() {
	if c.Format == "" {
		c.Format = "phylip"
	}
	if c.DataType == "" {
		c.DataType = "dna"
	}
	if c.Model == "" {
		c.Model = "GTR"
	}
	if c.Kappa <= 0 {
		c.Kappa = 2.0
	}
	if c.Cats <= 0 {
		c.Cats = 4
	}
	if c.StartTree == "" {
		c.StartTree = "parsimony"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Strategy == "" {
		c.Strategy = "lru"
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// Check rejects the numbers in a spec that would size something past
// its bound, so a caller runs it before anything is allocated: Γ
// categories past model.MaxGammaCats (their checkpoint could never be
// restored) and Workers past MaxWorkers.
func (c *Spec) Check() error {
	if c.Cats > model.MaxGammaCats {
		return fmt.Errorf("analysis: %d gamma rate categories (at most %d)", c.Cats, model.MaxGammaCats)
	}
	if c.Workers > MaxWorkers {
		return fmt.Errorf("analysis: %d workers (at most %d)", c.Workers, MaxWorkers)
	}
	return nil
}

// Options describes how a run behaves. None of it changes a likelihood
// bit, and none of it is part of a session's identity, so it never
// travels with the Spec.
type Options struct {
	// NoReadSkipping disables §3.4's write-intent read elision.
	NoReadSkipping bool
	// Sync runs the paper's synchronous manager without prefetch, for
	// arms whose store counters must repeat in a fixed order. The zero
	// value is what ships: out-of-core I/O on the async pipeline, the
	// traversal plan's next reads staged one step ahead.
	Sync bool
	// Stack is the store an out-of-core run opens: medium and paths,
	// cache tier, fault injection. Open supplies the geometry.
	Stack ooc.StackSpec
	// Registry, when set, instruments the engine, the manager and the
	// store layers under their one-run-per-process names.
	Registry *obs.Registry
}
