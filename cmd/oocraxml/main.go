// Command oocraxml is the reproduction's RAxML-like driver: it reads an
// alignment (relaxed PHYLIP or FASTA) and runs a Maximum-Likelihood
// analysis whose ancestral probability vectors live either fully in RAM
// (the standard implementation) or behind the out-of-core manager with
// a hard memory limit — the paper's -L flag. An out-of-core run moves
// its vector I/O onto background goroutines, staging the traversal
// plan's next reads one step ahead (the paper's §5 prefetch thread);
// -L pays for the records the writer may hold before it buys slots
// (their bytes hold records, not widths), and the answer is
// bit-identical to the paper's synchronous manager.
//
// Modes (-f, following the paper's modified RAxML):
//
//	s   ML tree search with lazy SPR (default)
//	n   ML tree search with NNI
//	e   evaluate: branch lengths and Γ shape on a fixed topology
//	z   k full tree traversals on a fixed topology (the paper's §4.3
//	    worst-case workload; see -k)
//
// Examples:
//
//	oocraxml -s data.phy -m HKY -a 0.8
//	oocraxml -s data.phy -t start.nwk -f z -k 5 -L 1000000000 -strategy lru
//	oocraxml -s data.fasta -fasta -f e -t tree.nwk -L 50000000 -strategy topological -stats
//	oocraxml -s data.phy -f z -L 50000000 -backing vecs.bin
//
// Every vector read back, from the -backing file or a remote -store, is
// verified against the CRC-32C recorded (in memory) when this run wrote
// it; a corrupt vector is recomputed from its children instead of
// failing the run, and so is one the store cannot read (a remote store
// re-issues a failed request first, under its own retry budget). A
// write error ends the run. A run reads only vectors it wrote: -backing
// and -cache-dir say where the files go, every run truncates them, and
// -resume restores tree, model and search position from the checkpoint
// and recomputes the vectors.
//
// -stats prints one consolidated statistics report at
// the end of the run, sourced from the metrics registry that
// instruments every layer. -http ADDR additionally serves the live
// debug endpoint while the run is in flight:
//
//	oocraxml -s data.phy -f z -k 100 -L 50000000 -http 127.0.0.1:8080 -stats
//	curl localhost:8080/debug/vars    # JSON metrics snapshot
//	curl localhost:8080/debug/report  # the same report -stats prints
//	curl localhost:8080/debug/trace   # Chrome trace: compute and I/O worker lanes
//
// The trace is the run's spans under one run-long root span: fault-ins,
// evictions, prefetches and join-waits on the compute lane, pipe.fetch
// and pipe.write_back on one lane per I/O worker, per-traversal
// plf.newviews/plf.evaluate, sum tables, recovery markers, search
// rounds and — over -store remote:// — tier.remote_get/put. Past the
// collector's per-trace cap the oldest spans are overwritten.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/bio"
	"oocphylo/internal/bootstrap"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/service"
	"oocphylo/internal/tree"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "client":
		err = runClient(args[1:], os.Stdout)
	default:
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocraxml:", err)
		os.Exit(1)
	}
}

// options is what only `run` has: modes, checkpointing and printing.
// What the analysis is comes from the shared spec flags, how it runs
// from analysis.Options.
type options struct {
	mode       string
	traversals int
	sprRadius  int
	rounds     int
	outTree    string
	printStats bool
	optModel   bool
	bootstraps int
	checkpoint string
	resume     string
	ckptEvery  time.Duration
	httpAddr   string
	lnlBits    bool
}

// runFlags declares the one-shot flag set.
func runFlags() (*flag.FlagSet, *options, *specFlags, *analysis.Options) {
	fs := flag.NewFlagSet("oocraxml", flag.ContinueOnError)
	o, how := &options{}, &analysis.Options{}
	sf := bindSpec(fs)
	fs.StringVar(&sf.spec.AAModel, "aamodel", "", "empirical AA model in PAML .dat format (WAG, LG, ...) for -m PAML")
	fs.StringVar(&o.mode, "f", "s", "mode: s=search (SPR), n=search (NNI), e=evaluate, z=full traversals")
	fs.IntVar(&o.traversals, "k", 5, "full traversals for -f z")
	fs.StringVar(&how.Stack.Path, "backing", "", "backing file for out-of-core vectors, created or truncated (default: temp file, removed on exit)")
	bindStore(fs, &how.Stack, "vector store URL: remote://host:port/object keeps out-of-core vectors on an object store behind a local write-back cache (default: the -backing file)")
	fs.StringVar(&how.Stack.CacheDir, "cache-dir", "", "local write-back cache directory for -store remote:// (default: temp dir, removed on exit); the cache starts cold on every run")
	fs.IntVar(&o.sprRadius, "radius", 5, "lazy-SPR rearrangement radius")
	fs.IntVar(&o.rounds, "rounds", 10, "maximum SPR improvement rounds")
	fs.BoolVar(&o.optModel, "optimize-model", false, "also optimise GTR exchangeabilities (search/evaluate modes)")
	fs.IntVar(&o.bootstraps, "bootstrap", 0, "bootstrap replicates; annotates the result tree with support values")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a resumable checkpoint here after every search round")
	fs.DurationVar(&o.ckptEvery, "checkpoint-interval", 0, "minimum time between -checkpoint writes (0 = checkpoint every round)")
	fs.StringVar(&o.resume, "resume", "", "resume tree, model parameters and search progress from this checkpoint (vectors are recomputed, never reloaded)")
	fs.Int64Var(&how.Stack.CrashAfter, "crashpoint", 0, "TESTING: kill the process (exit 3) at the N-th backing-store vector I/O")
	fs.StringVar(&o.outTree, "w", "", "write the result tree to this file (default stdout)")
	fs.BoolVar(&o.printStats, "stats", false, "print the consolidated per-layer statistics report")
	fs.StringVar(&o.httpAddr, "http", "", "serve the live /debug endpoint (vars, report, trace, pprof) on this address, e.g. :8080 or 127.0.0.1:0")
	fs.BoolVar(&o.lnlBits, "lnl-bits", false, "additionally print the final log likelihood's raw float64 bit pattern (hex) for bit-for-bit comparisons")
	return fs, o, sf, how
}

func run(args []string, out *os.File) error {
	fs, o, sf, how := runFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := sf.resolve()
	if spec.Path == "" {
		fs.Usage()
		return fmt.Errorf("an alignment (-s) is required")
	}
	if err := spec.Check(); err != nil {
		return err
	}

	// Cooperative cancellation: SIGINT/SIGTERM cancel ctx and the run
	// stops at the next safe boundary — mode s additionally writes a
	// final checkpoint — then exits 0, so an interrupt is an outcome,
	// not a failure.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Observability: one registry feeds both the final report and the
	// live endpoint; spans are only recorded when someone can read them
	// (the endpoint's /debug/trace), under a root span spanning the run.
	var reg *obs.Registry
	var root *obs.Span
	if o.printStats || o.httpAddr != "" {
		reg = obs.NewRegistry()
		reg.SetInfo("run.mode", o.mode)
	}
	if o.httpAddr != "" {
		col := obs.NewSpanCollector(4)
		// Mirror the collector's own health (drops included) into the
		// registry so /debug/vars and the report expose it.
		obs.RegisterSpanMetrics(reg, col)
		addr, shutdown, err := obs.Serve(o.httpAddr, reg, col)
		if err != nil {
			return err
		}
		defer shutdown()
		root = col.StartTrace("oocraxml")
		defer root.End()
		fmt.Fprintf(out, "Debug endpoint: http://%s/ (vars, report, trace, pprof)\n", addr)
	}
	how.Registry = reg

	_, pats, err := analysis.Load(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Alignment: %d taxa, %d sites, %d patterns (%s)\n",
		pats.NumTaxa(), pats.TotalSites(), pats.NumPatterns(), pats.Alphabet.Type)

	var in *analysis.Inputs
	var resumeState *checkpoint.State
	if o.resume != "" {
		resumeState, err = checkpoint.Load(o.resume)
		if err != nil {
			return err
		}
		t, m, err := resumeState.Restore()
		if err != nil {
			return err
		}
		in = &analysis.Inputs{Patterns: pats, Model: m, Tree: t}
		fmt.Fprintf(out, "Resumed from %s (round %d, lnL %.4f)\n", o.resume, resumeState.Round, resumeState.LnL)
	} else if in, err = analysis.Build(spec, pats); err != nil {
		return err
	}
	t, m := in.Tree, in.Model
	fmt.Fprintf(out, "Model: %s, %d rate categories", m.Name, m.Cats())
	if m.Cats() > 1 {
		fmt.Fprintf(out, " (alpha = %g)", m.Alpha)
	}
	fmt.Fprintln(out)

	sz, err := analysis.Size(spec, in)
	if err != nil {
		return err
	}
	r, err := analysis.Open(spec, *how, in, sz, sz.Quota)
	if err != nil {
		return err
	}
	defer r.Close()
	r.SetSpan(root)
	printProvider(out, spec, how, r)
	e := r.Engine
	if o.mode != "s" {
		// Engine-level cancellation aborts traversals between plan steps.
		// Mode s instead checks the context itself at tree-consistent
		// boundaries: an engine-level abort could fire mid-SPR-surgery,
		// where the topology is not in a checkpointable state.
		e.SetContext(ctx)
	}

	start := time.Now()
	var lnl float64
	switch o.mode {
	case "s":
		opts := search.Options{
			SPRRadius:     o.sprRadius,
			MaxRounds:     o.rounds,
			OptimizeModel: m.Cats() > 1,
		}
		if resumeState != nil && resumeState.Round > 0 {
			opts.Resume = resumeProgress(resumeState)
		}
		// writeCkpt persists the search position p; the Search block
		// carries the counters for exact resume.
		writeCkpt := func(p search.Progress) error {
			ck := checkpoint.Capture(t, m, p.LnL, p.Round)
			ck.Search = &checkpoint.SearchProgress{
				StartLnL:     p.StartLnL,
				LastImproved: p.LastImproved,
				MovesApplied: p.MovesApplied,
				MovesTested:  p.MovesTested,
				Alpha:        p.Alpha,
			}
			return checkpoint.Save(o.checkpoint, ck)
		}
		if o.checkpoint != "" {
			var lastCkpt time.Time
			opts.RoundCallback = func(p search.Progress) error {
				if o.ckptEvery > 0 && !lastCkpt.IsZero() && time.Since(lastCkpt) < o.ckptEvery {
					return nil
				}
				if err := writeCkpt(p); err != nil {
					return err
				}
				lastCkpt = time.Now()
				return nil
			}
		}
		s := search.New(e, opts)
		s.Instrument(reg)
		res, err := s.RunCtx(ctx)
		var itr *search.Interrupted
		switch {
		case errors.As(err, &itr):
			lnl = itr.Progress.LnL
			fmt.Fprintf(out, "Search interrupted at round %d: %v\n", itr.Progress.Round, itr.Unwrap())
			if o.checkpoint != "" {
				if err := writeCkpt(itr.Progress); err != nil {
					return err
				}
				fmt.Fprintf(out, "Checkpoint written to %s; continue with -resume %s\n", o.checkpoint, o.checkpoint)
			}
		case err != nil:
			return err
		default:
			lnl = res.LnL
			fmt.Fprintf(out, "Search: %d rounds, %d moves tested, %d accepted\n",
				res.Rounds, res.TestedMoves, res.AcceptedMoves)
			if m.Cats() > 1 {
				fmt.Fprintf(out, "Final alpha: %.4f\n", res.Alpha)
			}
			if o.checkpoint != "" {
				// Completion checkpoint, written before the optional
				// exchangeability polish: it marks the search boundary the
				// kill/resume soak compares runs at.
				if err := writeCkpt(res.Final); err != nil {
					return err
				}
			}
			if o.optModel && m.Exch != nil {
				s := search.New(e, search.Options{})
				exch, lnl2, err := s.OptimizeExchangeabilities(3, 0.05)
				if err != nil {
					return err
				}
				if lnl2 > lnl {
					lnl = lnl2
				}
				fmt.Fprintf(out, "GTR rates (AC AG AT CG CT GT): %.4g\n", exch)
			}
		}
	case "n":
		s := search.New(e, search.Options{MaxRounds: o.rounds})
		s.Instrument(reg)
		res, err := s.RunNNI()
		if err != nil {
			if canceled(err) {
				fmt.Fprintf(out, "Interrupted: %v\n", err)
				return nil
			}
			return err
		}
		lnl = res.LnL
		fmt.Fprintf(out, "NNI search: %d rounds\n", res.Rounds)
	case "e":
		s := search.New(e, search.Options{})
		lnl, err = s.SmoothBranches(8, 1e-3)
		if err != nil {
			if canceled(err) {
				fmt.Fprintf(out, "Interrupted: %v\n", err)
				return nil
			}
			return err
		}
		if m.Cats() > 1 {
			if _, lnl2, err := s.OptimizeAlpha(); err == nil && lnl2 > lnl {
				lnl = lnl2
			}
			fmt.Fprintf(out, "Final alpha: %.4f\n", m.Alpha)
		}
		if m.PInv > 0 {
			if _, lnl2, err := s.OptimizePInv(); err == nil && lnl2 > lnl {
				lnl = lnl2
			}
			fmt.Fprintf(out, "Final pInv: %.4f\n", m.PInv)
		}
		if o.optModel && m.Exch != nil {
			exch, lnl2, err := s.OptimizeExchangeabilities(3, 0.05)
			if err != nil {
				return err
			}
			if lnl2 > lnl {
				lnl = lnl2
			}
			fmt.Fprintf(out, "GTR rates (AC AG AT CG CT GT): %.4g\n", exch)
		}
	case "z":
		for i := 0; i < o.traversals; i++ {
			if err = e.FullTraversal(t.Edges[0]); err == nil {
				lnl, err = e.LogLikelihoodAt(t.Edges[0])
			}
			if err != nil {
				if canceled(err) {
					fmt.Fprintf(out, "Interrupted after %d of %d traversals\n", i, o.traversals)
					return nil
				}
				return err
			}
		}
		fmt.Fprintf(out, "Completed %d full tree traversals\n", o.traversals)
	default:
		return fmt.Errorf("unknown mode %q (want s, n, e or z)", o.mode)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "Log likelihood: %.6f\n", lnl)
	if o.lnlBits {
		fmt.Fprintf(out, "Log likelihood bits: %s\n", service.FormatLnLBits(lnl))
	}
	fmt.Fprintf(out, "Elapsed: %v\n", elapsed.Round(time.Millisecond))
	if o.printStats {
		writeReport(out, reg, r.Manager != nil)
	}

	newick := tree.WriteNewick(t)
	if o.bootstraps > 0 && (o.mode == "s" || o.mode == "n" || o.mode == "e") {
		annotated, err := runBootstrap(o, spec, pats, m, t, out)
		if err != nil {
			return err
		}
		newick = annotated
	}
	if o.mode == "s" || o.mode == "n" || o.mode == "e" {
		if o.outTree != "" {
			if err := os.WriteFile(o.outTree, []byte(newick+"\n"), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "Tree written to %s\n", o.outTree)
		} else {
			fmt.Fprintln(out, newick)
		}
	}
	return nil
}

// canceled reports whether err stems from the run's signal context —
// a cooperative interrupt rather than a genuine failure.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resumeProgress maps a checkpoint's search block back into the resume
// position. v1 checkpoints have no Search block; the cumulative
// counters then restart while the round index and likelihood carry on.
func resumeProgress(st *checkpoint.State) *search.Progress {
	p := &search.Progress{
		Round:        st.Round,
		LnL:          st.LnL,
		StartLnL:     st.LnL,
		LastImproved: st.Round,
	}
	if sp := st.Search; sp != nil {
		p.StartLnL = sp.StartLnL
		p.LastImproved = sp.LastImproved
		p.MovesApplied = sp.MovesApplied
		p.MovesTested = sp.MovesTested
		p.Alpha = sp.Alpha
	}
	return p
}

// writeReport prints the consolidated statistics report: the legacy
// headline lines (engine totals, kernel identity, out-of-core rates)
// followed by the full per-layer registry report. Everything is sourced
// from a single registry snapshot — the same document the live
// /debug/report endpoint serves — rather than from the per-layer stats
// structs the old four-part dump read directly.
func writeReport(out io.Writer, reg *obs.Registry, outOfCore bool) {
	s := reg.Snapshot()
	c := s.Counters
	fmt.Fprintf(out, "Engine: %d newviews, %d evaluations, %d sum tables, %d Newton iterations\n",
		c["plf.newviews"], c["plf.evaluations"], c["plf.sum_tables"], c["plf.newton_iters"])
	fmt.Fprintf(out, "Kernels: %s (%s mode)", s.Info["plf.kernel"], s.Info["plf.kernel_mode"])
	if hits, misses := c["plf.pcache_hits"], c["plf.pcache_misses"]; hits+misses > 0 {
		fmt.Fprintf(out, "; P cache %d hits / %d misses (%.1f%%), %d drops",
			hits, misses, 100*float64(hits)/float64(hits+misses), c["plf.pcache_drops"])
	}
	fmt.Fprintln(out)
	if outOfCore {
		req := c["ooc.requests"]
		rate := func(n int64) float64 {
			if req == 0 {
				return 0
			}
			return 100 * float64(n) / float64(req)
		}
		fmt.Fprintf(out, "Out-of-core: %d requests, %d misses (%.2f%%), %d reads (%.2f%%), %d writes, %d skipped reads\n",
			req, c["ooc.misses"], rate(c["ooc.misses"]), c["ooc.reads"], rate(c["ooc.reads"]),
			c["ooc.writes"], c["ooc.skipped_reads"])
	}
	obs.WriteReport(out, s)
}

// printProvider reports where the vectors live: the provider Open chose
// and the store stack's notes.
func printProvider(out *os.File, spec analysis.Spec, how *analysis.Options, r *analysis.Run) {
	n := r.Sizing.NumVectors
	if r.Manager == nil {
		if spec.MemLimit > 0 {
			fmt.Fprintf(out, "Memory limit %d B covers all %d vectors; running in RAM\n", spec.MemLimit, n)
		}
		if how.Stack.URL != "" {
			fmt.Fprintf(out, "Note: -store %s unused — all vectors fit in RAM (set -L to go out of core)\n", how.Stack.URL)
		}
		return
	}
	for _, note := range r.Stack.Notes {
		fmt.Fprintln(out, note)
	}
	if how.Stack.CrashAfter > 0 {
		fmt.Fprintf(out, "Crashpoint armed: exit %d at vector I/O #%d\n", ooc.CrashExitCode, how.Stack.CrashAfter)
	}
	where := "backing file " + r.Stack.Spec.Path
	if how.Stack.URL != "" {
		where = "remote store " + how.Stack.URL
	}
	slots := r.Manager.Slots()
	fmt.Fprintf(out, "Out-of-core: %d of %d vectors' bytes in RAM (%.1f%%), strategy %s, %s\n",
		slots, n, 100*float64(slots)/float64(n), r.Strategy.Name(), where)
}

// runBootstrap infers o.bootstraps replicate trees (parsimony stepwise-
// addition starting tree, branch smoothing, one lazy-SPR round per
// replicate) and returns the main tree's Newick annotated with
// bipartition support percentages.
func runBootstrap(o *options, spec analysis.Spec, pats *bio.Patterns, m *model.Model, ref *tree.Tree, out *os.File) (string, error) {
	fmt.Fprintf(out, "Running %d bootstrap replicates...\n", o.bootstraps)
	infer := func(rep int, sample *bio.Patterns) (*tree.Tree, error) {
		start, err := analysis.StartTree("parsimony", sample, spec.Seed+int64(rep))
		if err != nil {
			return nil, err
		}
		prov := plf.NewInMemoryProvider(start.NumInner(), plf.VectorLength(m, sample.NumPatterns()))
		e, err := plf.New(start, sample, m.Clone(), prov)
		if err != nil {
			return nil, err
		}
		e.SetWorkers(spec.Workers)
		if _, err := search.New(e, search.Options{SPRRadius: o.sprRadius, MaxRounds: 1}).Run(); err != nil {
			return nil, err
		}
		return e.T, nil
	}
	trees, err := bootstrap.Run(pats, o.bootstraps, spec.Seed+777, infer)
	if err != nil {
		return "", err
	}
	sup, err := bootstrap.Support(ref, trees)
	if err != nil {
		return "", err
	}
	mean := 0.0
	for _, s := range sup {
		mean += s
	}
	if len(sup) > 0 {
		mean /= float64(len(sup))
	}
	fmt.Fprintf(out, "Mean bipartition support: %.1f%%\n", 100*mean)
	return bootstrap.NewickWithSupport(ref, sup), nil
}
