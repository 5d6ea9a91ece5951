// Command oocraxml is the reproduction's RAxML-like driver: it reads an
// alignment (relaxed PHYLIP or FASTA) and runs a Maximum-Likelihood
// analysis whose ancestral probability vectors live either fully in RAM
// (the standard implementation) or behind the out-of-core manager with
// a hard memory limit — the paper's -L flag.
//
// Modes (-f, following the paper's modified RAxML):
//
//	s   ML tree search with lazy SPR (default)
//	e   evaluate: branch lengths and Γ shape on a fixed topology
//	z   k full tree traversals on a fixed topology (the paper's §4.3
//	    worst-case workload; see -k)
//
// Examples:
//
//	oocraxml -s data.phy -m HKY -a 0.8
//	oocraxml -s data.phy -t start.nwk -f z -k 5 -L 1000000000 -strategy lru
//	oocraxml -s data.fasta -fasta -f e -t tree.nwk -L 50000000 -strategy topological -stats
//	oocraxml -s data.phy -f z -L 50000000 -backing vecs.bin -verify-store -io-retries 5
//
// With -verify-store, every vector read from the backing file is
// verified against a CRC64 sidecar (<backing>.sum); a corrupt vector is
// recomputed from its children instead of failing the run, and
// checkpoints record a store manifest that -resume validates the
// backing file against. -io-retries bounds the exponential-backoff
// retries for transient I/O errors.
//
// -report (alias -stats) prints one consolidated statistics report at
// the end of the run, sourced from the metrics registry that
// instruments every layer. -http ADDR additionally serves the live
// debug endpoint while the run is in flight:
//
//	oocraxml -s data.phy -f z -k 100 -L 50000000 -async -http 127.0.0.1:8080 -report
//	curl localhost:8080/debug/vars    # JSON metrics snapshot
//	curl localhost:8080/debug/report  # the same report -report prints
//	curl localhost:8080/debug/trace   # Chrome trace of the vector lifecycle
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/bootstrap"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/distance"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/parsimony"
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

type options struct {
	alignPath   string
	fasta       bool
	aa          bool
	treePath    string
	mode        string
	modelName   string
	kappa       float64
	alpha       float64
	cats        int
	traversals  int
	memLimit    int64
	strategy    string
	backing     string
	noReadSkip  bool
	sprRadius   int
	rounds      int
	seed        int64
	outTree     string
	printStats  bool
	emptyFreqs  bool
	threads     int
	prefetch    bool
	async       bool
	ioWorkers   int
	prefDepth   int
	startTree   string
	optModel    bool
	bootstraps  int
	checkpoint  string
	resume      string
	aaModelPath string
	pinv        float64
	verifyStore bool
	ioRetries   int
	kernel      string
	precision   string
	httpAddr    string
	memBudget   int64
	ckptEvery   time.Duration
	crashAfter  int64
	lnlBits     bool
	store       string
	cacheDir    string
	cacheBytes  int64
	remoteLanes int

	remoteDeadline time.Duration
	hedgeAfter     time.Duration
	spillDir       string
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("oocraxml", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.alignPath, "s", "", "alignment file (relaxed PHYLIP; use -fasta for FASTA)")
	fs.BoolVar(&o.fasta, "fasta", false, "alignment is FASTA rather than PHYLIP")
	fs.BoolVar(&o.aa, "aa", false, "amino-acid data (default DNA)")
	fs.StringVar(&o.treePath, "t", "", "starting/fixed tree in Newick format (default: random topology)")
	fs.StringVar(&o.mode, "f", "s", "mode: s=search (SPR), n=search (NNI), e=evaluate, z=full traversals")
	fs.StringVar(&o.modelName, "m", "GTR", "substitution model: JC, K80, HKY, GTR (DNA); POISSON or PAML (AA)")
	fs.StringVar(&o.aaModelPath, "aamodel", "", "empirical AA model in PAML .dat format (WAG, LG, ...) for -m PAML")
	fs.Float64Var(&o.kappa, "kappa", 2.0, "transition/transversion ratio for K80/HKY")
	fs.Float64Var(&o.alpha, "a", 1.0, "Gamma shape parameter (0 disables rate heterogeneity)")
	fs.Float64Var(&o.pinv, "pinv", 0, "proportion of invariant sites (+I); optimised in evaluate/search modes when > 0")
	fs.IntVar(&o.cats, "c", 4, "number of discrete Gamma rate categories")
	fs.IntVar(&o.traversals, "k", 5, "full traversals for -f z")
	fs.Int64Var(&o.memLimit, "L", 0, "ancestral-vector RAM limit in bytes (0 = all in RAM)")
	fs.StringVar(&o.strategy, "strategy", "lru", "replacement strategy: random, lru, lfu, topological")
	fs.StringVar(&o.backing, "backing", "", "backing file for out-of-core vectors (default: temp file)")
	fs.StringVar(&o.store, "store", "", "vector store URL: remote://host:port/object keeps out-of-core vectors on an object store behind a local write-back cache (default: the -backing file)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "local write-back cache directory for -store remote:// (default: temp dir, removed on exit; a persistent dir warm-starts the next run)")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 0, "byte budget for the local cache tier with -store remote:// (0 = room for every vector)")
	fs.IntVar(&o.remoteLanes, "remote-lanes", 2, "parallel remote fetch lanes for -store remote://")
	fs.DurationVar(&o.remoteDeadline, "remote-deadline", 0, "deadline per remote request attempt for -store remote:// (0 = none); expiries are retried with jittered backoff, then trip the circuit breaker into degraded (cache+recompute) mode")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "launch a duplicate remote read when the first is still in flight after this long with -store remote:// (0 = no hedging)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "directory for the write-back spill journal with -store remote:// (default: the cache dir); absorbs dirty evictions during remote outages, replayed on recovery")
	fs.BoolVar(&o.noReadSkip, "no-read-skipping", false, "disable the read-skipping optimisation")
	fs.IntVar(&o.sprRadius, "radius", 5, "lazy-SPR rearrangement radius")
	fs.IntVar(&o.rounds, "rounds", 10, "maximum SPR improvement rounds")
	fs.Int64Var(&o.seed, "seed", 42, "random seed (starting trees, random strategy)")
	fs.IntVar(&o.threads, "threads", 1, "PLF kernel worker goroutines (results are identical for any value)")
	fs.StringVar(&o.kernel, "kernel", plf.KernelAuto, "PLF compute kernels: auto (specialised where available), blocked or generic; results are bit-identical either way")
	fs.StringVar(&o.precision, "precision", plf.PrecisionF64, "compute precision: f64 (default) or f32 (halves vector memory and store bandwidth; results are bit-identical within a precision, approximate across)")
	fs.BoolVar(&o.prefetch, "prefetch", false, "enable plan-driven vector prefetching (out-of-core runs)")
	fs.BoolVar(&o.async, "async", false, "run out-of-core I/O on background goroutines (implies -prefetch); results are bit-identical to synchronous runs")
	fs.IntVar(&o.ioWorkers, "io-workers", 2, "background fetch goroutines for -async")
	fs.IntVar(&o.prefDepth, "prefetch-depth", 1, "traversal-plan steps to stage ahead (depth > 1 pays off with -async)")
	fs.StringVar(&o.startTree, "start", "parsimony", "starting tree when -t is absent: parsimony, nj or random")
	fs.BoolVar(&o.optModel, "optimize-model", false, "also optimise GTR exchangeabilities (search/evaluate modes)")
	fs.IntVar(&o.bootstraps, "bootstrap", 0, "bootstrap replicates; annotates the result tree with support values")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a resumable checkpoint here after every search round")
	fs.DurationVar(&o.ckptEvery, "checkpoint-interval", 0, "minimum time between -checkpoint writes (0 = checkpoint every round)")
	fs.StringVar(&o.resume, "resume", "", "resume tree, model parameters and search progress from this checkpoint")
	fs.Int64Var(&o.memBudget, "mem-budget", 0, "soft heap budget in bytes: a watchdog shrinks/grows the out-of-core slot pool at engine safe points to stay under it (0 = off)")
	fs.Int64Var(&o.crashAfter, "crashpoint", 0, "TESTING: kill the process (exit 3) at the N-th backing-store vector I/O")
	fs.BoolVar(&o.verifyStore, "verify-store", false, "maintain a per-vector checksum sidecar next to the backing file and verify every read (corrupt vectors are recomputed, not fatal)")
	fs.IntVar(&o.ioRetries, "io-retries", 3, "retries with exponential backoff for transient backing-store I/O errors")
	fs.StringVar(&o.outTree, "w", "", "write the result tree to this file (default stdout)")
	fs.BoolVar(&o.printStats, "report", false, "print the consolidated per-layer statistics report")
	fs.BoolVar(&o.printStats, "stats", false, "alias for -report (the historical flag name)")
	fs.StringVar(&o.httpAddr, "http", "", "serve the live /debug endpoint (vars, report, trace, pprof) on this address, e.g. :8080 or 127.0.0.1:0")
	fs.BoolVar(&o.emptyFreqs, "uniform-freqs", false, "use uniform base frequencies instead of empirical")
	fs.BoolVar(&o.lnlBits, "lnl-bits", false, "additionally print the final log likelihood's raw float64 bit pattern (hex) for bit-for-bit comparisons")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.alignPath == "" {
		fs.Usage()
		return fmt.Errorf("an alignment (-s) is required")
	}

	// Cooperative cancellation: SIGINT/SIGTERM cancel ctx and the run
	// stops at the next safe boundary — mode s additionally writes a
	// final checkpoint — then exits 0, so an interrupt is an outcome,
	// not a failure.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Observability: one registry feeds both the final report and the
	// live endpoint; the trace ring only exists when someone can read it
	// (the endpoint's /debug/trace).
	var reg *obs.Registry
	var tr *obs.Tracer
	if o.printStats || o.httpAddr != "" {
		reg = obs.NewRegistry()
		reg.SetInfo("run.mode", o.mode)
	}
	if o.httpAddr != "" {
		tr = obs.NewTracer(1 << 16)
		// Mirror the ring's own health (drops included) into the
		// registry so /debug/vars and the report expose it.
		obs.RegisterTracerMetrics(reg, tr, nil)
		addr, shutdown, err := obs.Serve(o.httpAddr, reg, tr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(out, "Debug endpoint: http://%s/ (vars, report, trace, pprof)\n", addr)
	}

	pats, err := loadAlignment(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Alignment: %d taxa, %d sites, %d patterns (%s)\n",
		pats.NumTaxa(), pats.TotalSites(), pats.NumPatterns(), pats.Alphabet.Type)

	var t *tree.Tree
	var m *model.Model
	var resumeMan *ooc.Manifest
	var resumeState *checkpoint.State
	if o.resume != "" {
		st, err := checkpoint.Load(o.resume)
		if err != nil {
			return err
		}
		t, m, err = st.Restore()
		if err != nil {
			return err
		}
		if t.NumTips != pats.NumTaxa() {
			return fmt.Errorf("checkpoint tree has %d tips, alignment %d taxa", t.NumTips, pats.NumTaxa())
		}
		resumeMan = st.Store
		resumeState = st
		fmt.Fprintf(out, "Resumed from %s (round %d, lnL %.4f)\n", o.resume, st.Round, st.LnL)
	} else {
		m, err = buildModel(o, pats)
		if err != nil {
			return err
		}
		t, err = loadOrRandomTree(o, pats)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "Model: %s, %d rate categories", m.Name, m.Cats())
	if m.Cats() > 1 {
		fmt.Fprintf(out, " (alpha = %g)", m.Alpha)
	}
	fmt.Fprintln(out)

	vecLen, err := plf.CarrierLength(m, pats.NumPatterns(), o.precision)
	if err != nil {
		return err
	}
	if o.precision == plf.PrecisionF32 {
		fmt.Fprintf(out, "Precision: float32 compute (%d B per ancestral vector, half of f64)\n", vecLen*8)
	}
	prov, mgr, st, err := buildProvider(o, t, vecLen, resumeMan, out)
	if err != nil {
		return err
	}
	defer st.Close()
	if mgr != nil {
		// Deferred after st.Close, so it runs first: the manager drains the
		// async pipeline (joining in-flight fetches and queued write-backs)
		// before the store goes away.
		defer mgr.Close()
		mgr.Instrument(reg, tr)
	}
	ooc.InstrumentChecksumStore(reg, st.Checksum)
	ooc.InstrumentTieredStore(reg, st.Tier)

	e, err := plf.NewWithPrecision(t, pats, m, prov, o.precision)
	if err != nil {
		return err
	}
	if err := e.SetKernel(o.kernel); err != nil {
		return err
	}
	e.Instrument(reg, tr)
	e.SetWorkers(o.threads)
	defer e.Close()
	// Async runs overlap I/O with compute only when the engine actually
	// stages reads ahead, so -async implies -prefetch.
	e.EnablePrefetch(o.prefetch || o.async)
	e.SetPrefetchDepth(o.prefDepth)

	var wd *ooc.Watchdog
	if o.memBudget > 0 && mgr != nil {
		wd, err = ooc.NewWatchdog(mgr, ooc.WatchdogConfig{SoftBudget: o.memBudget})
		if err != nil {
			return err
		}
		e.SetSafePoint(func() error { return wd.Check() })
		fmt.Fprintf(out, "Memory watchdog: soft heap budget %d B over %d slots\n", o.memBudget, mgr.Slots())
	}
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
		// writeCkpt persists the search position p: flush makes the
		// backing file complete at the boundary, the sidecar sync plus
		// manifest let -resume validate it, and the Search block carries
		// the counters for exact resume.
		writeCkpt := func(p search.Progress) error {
			ck := checkpoint.Capture(t, m, p.LnL, p.Round)
			ck.Search = &checkpoint.SearchProgress{
				StartLnL:     p.StartLnL,
				LastImproved: p.LastImproved,
				MovesApplied: p.MovesApplied,
				MovesTested:  p.MovesTested,
				Alpha:        p.Alpha,
			}
			if mgr != nil {
				if err := mgr.Flush(); err != nil {
					return err
				}
			}
			if cs := st.Checksum; cs != nil {
				if err := cs.Sync(); err != nil {
					return err
				}
				man := cs.Manifest()
				ck.Store = &man
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
		s.Instrument(reg, tr)
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
		s.Instrument(reg, tr)
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
			if err := e.FullTraversal(t.Edges[0]); err != nil {
				if canceled(err) {
					fmt.Fprintf(out, "Interrupted after %d of %d traversals\n", i, o.traversals)
					return nil
				}
				return err
			}
			lnl, err = e.LogLikelihoodAt(t.Edges[0])
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
	if wd != nil {
		ws := wd.Stats()
		fmt.Fprintf(out, "Watchdog: %d samples, %d shrinks, %d grows; %d slots and %d B heap at last sample\n",
			ws.Samples, ws.Shrinks, ws.Grows, ws.Slots, ws.LastHeap)
	}
	if o.printStats {
		writeReport(out, reg, mgr != nil)
	}

	newick := tree.WriteNewick(t)
	if o.bootstraps > 0 && (o.mode == "s" || o.mode == "n" || o.mode == "e") {
		annotated, err := runBootstrap(o, pats, m, t, out)
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

func loadAlignment(o options) (*bio.Patterns, error) {
	f, err := os.Open(o.alignPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dtype := bio.DNA
	if o.aa {
		dtype = bio.AA
	}
	alphabet := bio.NewAlphabet(dtype)
	var aln *bio.Alignment
	if o.fasta {
		aln, err = bio.ReadFASTA(f, alphabet)
	} else {
		aln, err = bio.ReadPhylip(f, alphabet)
	}
	if err != nil {
		return nil, err
	}
	return bio.Compress(aln)
}

func buildModel(o options, pats *bio.Patterns) (*model.Model, error) {
	freqs := pats.BaseFrequencies()
	if o.emptyFreqs {
		for i := range freqs {
			freqs[i] = 1 / float64(len(freqs))
		}
	}
	var m *model.Model
	var err error
	switch strings.ToUpper(o.modelName) {
	case "JC":
		m, err = model.NewJC(pats.Alphabet.States)
	case "POISSON":
		m, err = model.NewJC(pats.Alphabet.States)
	case "PAML":
		if pats.Alphabet.States != 20 {
			return nil, fmt.Errorf("-m PAML needs amino-acid data (-aa)")
		}
		if o.aaModelPath == "" {
			return nil, fmt.Errorf("-m PAML requires -aamodel <file.dat>")
		}
		f, ferr := os.Open(o.aaModelPath)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close()
		m, err = model.ReadPAML(f, strings.ToUpper(
			strings.TrimSuffix(filepath.Base(o.aaModelPath), filepath.Ext(o.aaModelPath))))
	case "K80":
		m, err = model.NewK80(o.kappa)
	case "HKY":
		m, err = model.NewHKY(freqs, o.kappa)
	case "GTR":
		if pats.Alphabet.States != 4 {
			return nil, fmt.Errorf("GTR exchangeabilities default to DNA; use POISSON for protein data")
		}
		// Without user-supplied rates, GTR with unit exchangeabilities
		// and empirical frequencies (F81-like); rates would be optimised
		// in a full implementation of model optimisation.
		exch := []float64{1, 1, 1, 1, 1, 1}
		m, err = model.NewGTR(freqs, exch, 4)
	default:
		return nil, fmt.Errorf("unknown model %q", o.modelName)
	}
	if err != nil {
		return nil, err
	}
	if o.alpha > 0 && o.cats > 1 {
		if err := m.SetGamma(o.alpha, o.cats); err != nil {
			return nil, err
		}
	}
	if o.pinv > 0 {
		if err := m.SetInvariant(o.pinv); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func loadOrRandomTree(o options, pats *bio.Patterns) (*tree.Tree, error) {
	if o.treePath != "" {
		data, err := os.ReadFile(o.treePath)
		if err != nil {
			return nil, err
		}
		t, err := tree.ParseNewick(string(data))
		if err != nil {
			return nil, err
		}
		if t.NumTips != pats.NumTaxa() {
			return nil, fmt.Errorf("tree has %d tips, alignment %d taxa", t.NumTips, pats.NumTaxa())
		}
		return t, nil
	}
	return buildStartTree(o.startTree, pats, o.seed)
}

// buildStartTree constructs a starting topology: randomised-stepwise-
// addition parsimony (RAxML's default), neighbor joining on JC
// distances, or a random topology.
func buildStartTree(kind string, pats *bio.Patterns, seed int64) (*tree.Tree, error) {
	switch strings.ToLower(kind) {
	case "parsimony", "mp":
		return parsimony.StepwiseAddition(pats, rand.New(rand.NewSource(seed)))
	case "nj":
		return distance.NJTree(pats)
	case "random", "rand":
		return tree.RandomTopology(pats.Names, rand.New(rand.NewSource(seed)), 0.05, 0.15)
	}
	return nil, fmt.Errorf("unknown starting tree kind %q (want parsimony, nj or random)", kind)
}

// buildProvider returns the vector provider: in-memory when no limit is
// set, otherwise the out-of-core manager over the store stack the flags
// describe (ooc.OpenStack: -backing file or -store remote:// behind a
// cache tier, -verify-store checksums, -resume adoption against the
// checkpoint's manifest man, -crashpoint). The returned stack is never
// nil — empty for in-memory runs — and the caller closes the manager,
// then the stack.
func buildProvider(o options, t *tree.Tree, vecLen int, man *ooc.Manifest, out *os.File) (plf.VectorProvider, *ooc.Manager, *ooc.Stack, error) {
	n := t.NumInner()
	// Built up front so a mistyped name fails even when the data happens
	// to fit in the limit.
	strat, err := ooc.StrategyByName(o.strategy, n, t, o.seed+1)
	if err != nil {
		return nil, nil, nil, err
	}
	need := int64(n) * int64(vecLen) * 8
	if o.memLimit <= 0 || need <= o.memLimit {
		if o.memLimit > 0 {
			fmt.Fprintf(out, "Memory limit %d B covers all %d vectors; running in RAM\n", o.memLimit, n)
		}
		if o.store != "" {
			fmt.Fprintf(out, "Note: -store %s unused — all vectors fit in RAM (set -L to go out of core)\n", o.store)
		}
		return plf.NewInMemoryProvider(n, vecLen), nil, &ooc.Stack{}, nil
	}
	slots := int(o.memLimit / (int64(vecLen) * 8))
	if slots < ooc.MinSlots {
		return nil, nil, nil, fmt.Errorf(
			"memory limit %d B holds only %d vectors of %d B; the PLF needs at least %d (m >= 3)",
			o.memLimit, slots, vecLen*8, ooc.MinSlots)
	}
	if o.store != "" && !ooc.IsRemoteURL(o.store) {
		return nil, nil, nil, fmt.Errorf("-store %q: want a remote://host:port/object URL (local runs use -backing)", o.store)
	}
	st, err := ooc.OpenStack(ooc.StackSpec{
		TieredConfig: ooc.TieredConfig{
			NumVectors: n, VectorLen: vecLen,
			CacheDir: o.cacheDir, Lanes: o.remoteLanes,
			RemoteDeadline: o.remoteDeadline, HedgeAfter: o.hedgeAfter, SpillDir: o.spillDir,
		},
		URL: o.store, Path: o.backing, CacheBytes: o.cacheBytes,
		Verify: o.verifyStore,
		// A resume adopts what the interrupted run left under an explicit
		// -backing or -store; a temp file has nothing to adopt.
		Adopt:    o.resume != "" && (o.backing != "" || o.store != ""),
		Manifest: man, Precision: o.precision,
		CrashAfter: o.crashAfter,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, note := range st.Notes {
		fmt.Fprintln(out, note)
	}
	if o.crashAfter > 0 {
		fmt.Fprintf(out, "Crashpoint armed: exit %d at vector I/O #%d\n", ooc.CrashExitCode, o.crashAfter)
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors:   n,
		VectorLen:    vecLen,
		Slots:        slots,
		Strategy:     strat,
		ReadSkipping: !o.noReadSkip,
		Store:        st.Store,
		Async:        o.async,
		IOWorkers:    o.ioWorkers,
		Retry:        ooc.RetryPolicy{Max: o.ioRetries},
	})
	if err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	where := "backing file " + st.Spec.Path
	if o.store != "" {
		where = "remote store " + o.store
	}
	fmt.Fprintf(out, "Out-of-core: %d of %d vectors in RAM (%.1f%%), strategy %s, %s\n",
		slots, n, 100*float64(slots)/float64(n), strat.Name(), where)
	if o.async {
		// Report the effective values: the manager and engine clamp
		// non-positive worker counts and depths to their defaults.
		workers, depth := o.ioWorkers, o.prefDepth
		if workers <= 0 {
			workers = 2
		}
		if depth < 1 {
			depth = 1
		}
		fmt.Fprintf(out, "Async pipeline: %d fetch workers, prefetch depth %d\n", workers, depth)
	}
	if o.verifyStore {
		fmt.Fprintf(out, "Integrity: checksum sidecar %s, %d I/O retries\n", st.Spec.Sidecar, o.ioRetries)
	}
	return mgr, mgr, st, nil
}

// runBootstrap infers o.bootstraps replicate trees (parsimony stepwise-
// addition starting tree, branch smoothing, one lazy-SPR round per
// replicate) and returns the main tree's Newick annotated with
// bipartition support percentages.
func runBootstrap(o options, pats *bio.Patterns, m *model.Model, ref *tree.Tree, out *os.File) (string, error) {
	fmt.Fprintf(out, "Running %d bootstrap replicates...\n", o.bootstraps)
	infer := func(rep int, sample *bio.Patterns) (*tree.Tree, error) {
		start, err := parsimony.StepwiseAddition(sample, rand.New(rand.NewSource(o.seed+int64(rep))))
		if err != nil {
			return nil, err
		}
		prov := plf.NewInMemoryProvider(start.NumInner(), plf.VectorLength(m, sample.NumPatterns()))
		e, err := plf.New(start, sample, m.Clone(), prov)
		if err != nil {
			return nil, err
		}
		e.SetWorkers(o.threads)
		if _, err := search.New(e, search.Options{SPRRadius: o.sprRadius, MaxRounds: 1}).Run(); err != nil {
			return nil, err
		}
		return e.T, nil
	}
	trees, err := bootstrap.Run(pats, o.bootstraps, o.seed+777, infer)
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
