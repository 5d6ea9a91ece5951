package main

// Flag binders for what more than one subcommand accepts: the analysis
// description (`run` and `client create`) and the remote vector store
// (`run` and `serve`). One declaration per flag keeps names, defaults
// and help from drifting between subcommands.

import (
	"flag"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// specFlags is an analysis.Spec filled from flags. -s and -t name local
// files: `run` opens them in place, `client create` inlines them first.
type specFlags struct {
	spec      analysis.Spec
	fasta, aa bool
}

func bindSpec(fs *flag.FlagSet) *specFlags {
	f := &specFlags{}
	c := &f.spec
	fs.StringVar(&c.Path, "s", "", "alignment file (relaxed PHYLIP; use -fasta for FASTA)")
	fs.BoolVar(&f.fasta, "fasta", false, "alignment is FASTA rather than PHYLIP")
	fs.BoolVar(&f.aa, "aa", false, "amino-acid data (default DNA)")
	fs.StringVar(&c.TreePath, "t", "", "starting/fixed tree in Newick format (default: see -start)")
	fs.StringVar(&c.Model, "m", "GTR", "substitution model: JC, K80, HKY, GTR (DNA); POISSON (AA); PAML (AA, one-shot runs, with -aamodel)")
	fs.Float64Var(&c.Kappa, "kappa", 2.0, "transition/transversion ratio for K80/HKY")
	fs.Float64Var(&c.Alpha, "a", 1.0, "Gamma shape parameter (0 disables rate heterogeneity)")
	fs.Float64Var(&c.PInv, "pinv", 0, "proportion of invariant sites (+I); optimised in evaluate/search modes when > 0")
	fs.IntVar(&c.Cats, "c", 4, "number of discrete Gamma rate categories (at most 256)")
	fs.BoolVar(&c.UniformFreqs, "uniform-freqs", false, "use uniform base frequencies instead of empirical")
	fs.StringVar(&c.StartTree, "start", "parsimony", "starting tree when -t is absent: parsimony, nj or random")
	fs.Int64Var(&c.Seed, "seed", 42, "random seed (starting trees, random strategy)")
	fs.Int64Var(&c.MemLimit, "L", 0, "ancestral-vector RAM limit in bytes (0 = all in RAM)")
	fs.StringVar(&c.Strategy, "strategy", "lru", "replacement strategy: random, lru, lfu, topological")
	fs.IntVar(&c.Workers, "threads", 1, "PLF kernel worker goroutines, at most 256 (results are identical for any value)")
	fs.StringVar(&c.Kernel, "kernel", plf.KernelAuto, "PLF compute kernels: auto (specialised where available) or generic; results are bit-identical either way")
	return f
}

// resolve folds the boolean data flags into the spec, after Parse.
func (f *specFlags) resolve() analysis.Spec {
	c := f.spec
	if f.fasta {
		c.Format = "fasta"
	}
	if f.aa {
		c.DataType = "aa"
	}
	return c
}

// bindStore binds the remote-store flags into st. Only -store means
// something different per subcommand (one object for a run, an endpoint
// for a daemon's sessions), so its help is the caller's.
func bindStore(fs *flag.FlagSet, st *ooc.StackSpec, storeHelp string) {
	fs.StringVar(&st.URL, "store", "", storeHelp)
	fs.Int64Var(&st.CacheBytes, "cache-bytes", 0, "byte budget for the local cache tier with -store while the remote accepts writes; what it refuses stays on local disk, at most every vector (0 = room for every vector)")
	fs.DurationVar(&st.RemoteDeadline, "remote-deadline", 0, "deadline per remote request attempt with -store (0 = 10s); expiries are retried with jittered backoff, then trip the circuit breaker into degraded (cache+recompute) mode")
}
