package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/tree"
)

// dims is an alignment shape.
type dims struct{ taxa, sites int }

// scale sizes every workload. "full" is the benchmark; "smoke" runs the
// same code on toy inputs for bench_test.go.
type scale struct {
	trav, search, serve dims
	// travCycle and serveCycle are the lengths of the seeded edge
	// sequences the ops walk. A traversal costs the same toward any
	// edge, so a short cycle does; what an evaluate costs depends on the
	// path from the previous edge and on what that leaves in the slot
	// pool and the cache, so the daemon's cycle must be long enough that
	// no run repeats it and every seed averages over many paths.
	travCycle, serveCycle int
	// Warm-up ops per set-up: enough that page cache, P-cache, slot
	// pool and HTTP connections are in steady state, and that set-up
	// stays well above clock noise.
	warmRAM, warmOOC, warmServe int
	// minOps is the fewest timed ops of a run, so p90 always has ten
	// samples beyond it.
	minOps int
	// searchSlots is the search manager's slot pool (f ≈ 0.06 at full
	// scale, the paper's Fig. 4 regime).
	searchSlots int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

var scales = map[string]scale{
	"full": {
		trav: dims{1288, 1200}, search: dims{128, 600}, serve: dims{256, 1000},
		travCycle: 64, serveCycle: 512, warmRAM: 12, warmOOC: 8, warmServe: 60, minOps: 100, searchSlots: 8, setups: 3,
	},
	"smoke": {
		trav: dims{24, 80}, search: dims{24, 80}, serve: dims{24, 80},
		travCycle: 8, serveCycle: 8, warmRAM: 1, warmOOC: 1, warmServe: 4, minOps: 5, searchSlots: 5, setups: 1,
	},
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	sc   scale
	rec  *recorder // nil unless tracing
	dir  string    // scratch directory of this set-up; removed with it
}

// timed is what a workload's timed phase measured.
type timed struct {
	wall      time.Duration
	attempted int
	failed    int
	lat       []time.Duration // one per successful op
	// What bench_test.go compares between runs: the answers in op
	// order and the manager's counters over the timed phase.
	lnlBits []uint64
	mgr     ooc.Stats
}

// instance is one set-up of a workload, ready to be measured once.
type instance interface {
	// measure runs timed ops while more(done, elapsed) holds.
	measure(more func(done int, elapsed time.Duration) bool) (timed, error)
	// layers adds the per-layer metrics of the measured phase (traced
	// runs only).
	layers(t timed, m map[string]float64)
	close() error
}

type workload struct {
	name, why string
	setup     func(*env) (instance, error)
}

var workloads = []workload{
	{"trav-ram", "full traversals of the paper's 1288x1200 dataset in RAM: the single-threaded kernel baseline, plf does all the work and ooc none",
		func(e *env) (instance, error) { return setupTrav(e, false) }},
	{"trav-ooc", "the same traversals through the async out-of-core manager at f=0.25 over a checksummed file: the paper's Fig. 5 worst case, the write use of the store",
		func(e *env) (instance, error) { return setupTrav(e, true) }},
	{"search-ooc", "a lazy-SPR search at f=0.06 over a synchronous manager: the paper's Figs. 2-4 job, Newton-Raphson and demand reads dominate",
		func(e *env) (instance, error) { return setupSearch(e, false) }},
	{"serve-remote", "2 closed-loop clients evaluating against the daemon over a 5 ms remote object store: http, batching, tiered cache and remote GET on one request",
		setupServe},
}

// oocStack is the out-of-core manager over ChecksumStore(FileStore),
// assembled the way cmd/oocraxml does.
type oocStack struct {
	mgr   *ooc.Manager
	store ooc.Store
	prov  plf.VectorProvider
	// Counters at the start of the timed phase.
	stats0 ooc.Stats
	pipe0  ooc.PipelineStats
}

// openOOC builds the stack in e.dir. A traced run brackets
// ChecksumStore with timing stores and wraps the manager; an untraced
// run gets the bare stack.
func openOOC(e *env, n, vecLen, slots int, async bool) (*oocStack, error) {
	path := filepath.Join(e.dir, "vectors.bin")
	file, err := ooc.NewFileStore(path, n, vecLen)
	if err != nil {
		return nil, err
	}
	checksum := func(inner ooc.Store) (ooc.Store, error) {
		return ooc.NewChecksumStore(inner, path+".sum", n, vecLen)
	}
	var store ooc.Store
	if e.rec != nil {
		store, err = traceStores(e.rec, file, n, vecLen, !async, checksum)
	} else {
		store, err = checksum(file)
	}
	if err != nil {
		file.Close()
		return nil, err
	}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: store, Async: async,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	st := &oocStack{mgr: mgr, store: store, prov: mgr}
	if e.rec != nil {
		st.prov = &tracedProvider{inner: mgr, rec: e.rec}
	}
	return st, nil
}

// close drains the pipeline, then closes the store chain down to the
// file.
func (s *oocStack) close() error {
	err := s.mgr.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// flush ends a timed phase: the clock stops only when every write the
// ops caused has reached the file, so the pipeline gets no credit for
// work still queued and the store's counts repeat exactly. A nil stack
// (the in-RAM arms) has nothing to flush.
func (s *oocStack) flush() error {
	if s == nil {
		return nil
	}
	return s.mgr.Flush()
}

// mark starts a timed phase: behind the same barrier, so no write queued
// by the warm-up lands inside it, it snapshots the counters.
func (s *oocStack) mark() error {
	if err := s.flush(); err != nil {
		return err
	}
	s.stats0, s.pipe0 = s.mgr.Stats(), s.mgr.PipelineStats()
	return nil
}

// layers reports the manager's own counters over the timed phase and
// the times the wrappers measured around and below it.
func (s *oocStack) layers(rec *recorder, vecLen int, m map[string]float64) (selfSeconds float64) {
	st, pipe := s.mgr.Stats(), s.mgr.PipelineStats()
	req := float64(st.Requests - s.stats0.Requests)
	m["ooc.manager.requests"] = req
	if req > 0 {
		m["ooc.manager.miss_ratio"] = float64(st.Misses-s.stats0.Misses) / req
		m["ooc.manager.read_ratio"] = float64(st.Reads-s.stats0.Reads) / req
	}
	m["ooc.manager.slot_bytes"] = float64(s.mgr.Slots()) * float64(vecLen) * 8
	stall := (pipe.StallTime - s.pipe0.StallTime).Seconds()
	m["ooc.manager.stall_s"] = stall
	m["ooc.manager.join_wait_s"] = (pipe.JoinWait - s.pipe0.JoinWait).Seconds()
	m["ooc.manager.buffer_wait_s"] = (pipe.BufferWait - s.pipe0.BufferWait).Seconds()
	m["ooc.manager.overlapped_bytes"] = float64(pipe.OverlappedBytes - s.pipe0.OverlappedBytes)
	vector := rec.seconds(kVector) + rec.seconds(kPrefetch)
	m["ooc.manager.vector_s"] = vector
	m["ooc.manager.self_s"] = vector - stall

	outer := rec.seconds(kOuterRead) + rec.seconds(kOuterWrite)
	read, write := rec.seconds(kInnerRead), rec.seconds(kInnerWrite)
	m["ooc.checksum.self_s"] = outer - read - write
	rd, wr := &rec.totals[kInnerRead], &rec.totals[kInnerWrite]
	if b := rd.bytes.Load() + wr.bytes.Load(); b > 0 {
		m["ooc.checksum.ns_per_byte"] = (outer - read - write) * 1e9 / float64(b)
	}
	m["ooc.filestore.read_s"] = read
	m["ooc.filestore.write_s"] = write
	m["ooc.filestore.reads"] = float64(rd.calls.Load())
	m["ooc.filestore.writes"] = float64(wr.calls.Load())
	m["ooc.filestore.bytes_read"] = float64(rd.bytes.Load())
	m["ooc.filestore.bytes_written"] = float64(wr.bytes.Load())
	if write > 0 {
		m["ooc.filestore.write_mb_per_s"] = float64(wr.bytes.Load()) / 1e6 / write
	}
	// What the stack cost the compute goroutine: the manager's own
	// work plus the store time it blocked on. A synchronous manager
	// blocks on every store call, so the wrappers' time is the blocking
	// time; a pipelined one blocks only where the manager says it
	// stalled.
	if pipe.Enabled {
		return vector
	}
	return vector - stall + outer
}

// plfLayers reports the engine counters over the timed phase and the
// kernel time: op time not spent inside the provider.
func plfLayers(rec *recorder, before, after plf.Stats, patterns int, m map[string]float64) (selfSeconds float64) {
	newviews := after.Newviews - before.Newviews
	m["plf.newviews"] = float64(newviews)
	m["plf.evaluations"] = float64(after.Evaluations - before.Evaluations)
	m["plf.sum_tables"] = float64(after.SumTables - before.SumTables)
	m["plf.newton_iters"] = float64(after.NewtonIters - before.NewtonIters)
	hits, misses := after.PCacheHits-before.PCacheHits, after.PCacheMisses-before.PCacheMisses
	if hits+misses > 0 {
		m["plf.pcache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	self := rec.seconds(kOp) - rec.seconds(kVector) - rec.seconds(kPrefetch)
	m["plf.self_s"] = self
	if newviews > 0 {
		m["plf.newview_ns_per_site"] = self * 1e9 / float64(newviews) / float64(patterns)
	}
	return self
}

// travInst is trav-ram or trav-ooc: op i is a full traversal toward
// edge cycle[i] plus the likelihood there.
type travInst struct {
	rec    *recorder
	in     *inputs
	t      *tree.Tree
	eng    *plf.Engine
	stack  *oocStack // nil in RAM
	cycle  []int
	ref    []uint64
	next   int // ops done since set-up; indexes the cycle
	stats0 plf.Stats
}

func setupTrav(e *env, outOfCore bool) (instance, error) {
	w := &travInst{rec: e.rec}
	err := e.rec.phase(kSetupSim, func() (err error) {
		if w.in, err = newInputs(e.sc.trav.taxa, e.sc.trav.sites, e.seed); err != nil {
			return err
		}
		w.t, err = w.in.parseTree()
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.rec.phase(kSetupReference, func() (err error) {
		w.cycle = edgeCycle(e.seed, len(w.t.Edges), e.sc.travCycle)
		w.ref, err = referenceBits(w.in, w.cycle)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.rec.phase(kSetupOpenStore, func() error {
		m, err := w.in.newModel()
		if err != nil {
			return err
		}
		n, vecLen := w.t.NumInner(), plf.VectorLength(m, w.in.pats.NumPatterns())
		var prov plf.VectorProvider = plf.NewInMemoryProvider(n, vecLen)
		if outOfCore {
			if w.stack, err = openOOC(e, n, vecLen, ooc.SlotsForFraction(0.25, n), true); err != nil {
				return err
			}
			prov = w.stack.prov
		} else if e.rec != nil {
			prov = &tracedProvider{inner: prov, rec: e.rec}
		}
		if w.eng, err = plf.New(w.t, w.in.pats, m, prov); err != nil {
			return err
		}
		// As oocraxml -async wires it: the pipeline overlaps I/O with
		// compute only when the engine stages reads ahead.
		w.eng.EnablePrefetch(outOfCore)
		return nil
	})
	if err != nil {
		w.close()
		return nil, err
	}
	warm := e.sc.warmRAM
	if outOfCore {
		warm = e.sc.warmOOC
	}
	err = e.rec.phase(kSetupFirstTraversal, func() error { return w.warm(1) })
	if err == nil {
		err = e.rec.phase(kSetupWarmup, func() error { return w.warm(warm) })
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// op runs the next op and returns the bits of its answer.
func (w *travInst) op() (uint64, error) {
	edge := w.t.Edges[w.cycle[w.next%len(w.cycle)]]
	w.next++
	if err := w.eng.FullTraversal(edge); err != nil {
		return 0, err
	}
	lnl, err := w.eng.LogLikelihoodAt(edge)
	return math.Float64bits(lnl), err
}

func (w *travInst) warm(n int) error {
	for i := 0; i < n; i++ {
		if _, err := w.op(); err != nil {
			return err
		}
	}
	return nil
}

func (w *travInst) measure(more func(int, time.Duration) bool) (timed, error) {
	var t timed
	w.stats0 = w.eng.Stats
	if w.stack != nil {
		if err := w.stack.mark(); err != nil {
			return t, err
		}
	}
	w.rec.startTiming()
	start := time.Now()
	for more(t.attempted, time.Since(start)) {
		want := w.ref[w.next%len(w.cycle)]
		span := w.rec.beginOp()
		t0 := time.Now()
		bits, err := w.op()
		d := time.Since(t0)
		w.rec.endOp(span)
		t.attempted++
		t.lnlBits = append(t.lnlBits, bits)
		if err != nil || bits != want {
			t.failed++
			continue
		}
		t.lat = append(t.lat, d)
	}
	if err := w.stack.flush(); err != nil {
		return t, err
	}
	t.wall = time.Since(start)
	if w.stack != nil {
		t.mgr = w.stack.mgr.Stats()
	}
	return t, nil
}

func (w *travInst) layers(t timed, m map[string]float64) {
	attributed := plfLayers(w.rec, w.stats0, w.eng.Stats, w.in.pats.NumPatterns(), m)
	if w.stack != nil {
		attributed += w.stack.layers(w.rec, w.eng.Provider().VectorLen(), m)
	} else {
		attributed += w.rec.seconds(kVector) // the in-RAM provider: a slice lookup
	}
	m["bench.unattributed_ratio"] = (t.wall.Seconds() - attributed) / t.wall.Seconds()
}

func (w *travInst) close() error { return closeEngine(w.eng, w.stack) }

// closeEngine releases an engine and the stack under it; either may be
// missing after a failed set-up.
func closeEngine(eng *plf.Engine, stack *oocStack) error {
	if eng != nil {
		eng.Close()
	}
	if stack != nil {
		return stack.close()
	}
	return nil
}

// searchInst is search-ooc: one call of the search over a small slot
// pool. Move boundaries are invisible from outside Searcher.RunCtx, but
// the engine's safe point (the hook the memory watchdog uses) fires
// before every newview and every tested insertion starts with one, so
// a hook that watches Engine.Stats.SumTables advance sees each branch
// optimisation end. That gives a latency per insertion without
// wrapping anything, and a deterministic place to stop the search.
type searchInst struct {
	rec    *recorder
	in     *inputs
	eng    *plf.Engine
	stack  *oocStack // nil for the in-RAM arm the smoke test compares
	srch   *search.Searcher
	lnl0   float64 // after the warm-up smoothing
	stats0 plf.Stats
	res    *search.Result
}

func setupSearch(e *env, inRAM bool) (instance, error) {
	w := &searchInst{rec: e.rec}
	var start *tree.Tree
	err := e.rec.phase(kSetupSim, func() (err error) {
		if w.in, err = newInputs(e.sc.search.taxa, e.sc.search.sites, e.seed); err != nil {
			return err
		}
		// A random starting topology, as the repo's Figs. 2-4 runs use:
		// the search has real improvements to find. Pinned like every
		// other shape.
		start, err = tree.RandomTopology(w.in.pats.Names, rand.New(rand.NewSource(shapeSeed+1)), 0.05, 0.15)
		if err == nil {
			tree.Canonicalize(start)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.rec.phase(kSetupOpenStore, func() error {
		m, err := w.in.newModel()
		if err != nil {
			return err
		}
		n, vecLen := start.NumInner(), plf.VectorLength(m, w.in.pats.NumPatterns())
		var prov plf.VectorProvider = plf.NewInMemoryProvider(n, vecLen)
		if !inRAM {
			if w.stack, err = openOOC(e, n, vecLen, e.sc.searchSlots, false); err != nil {
				return err
			}
			prov = w.stack.prov
		}
		w.eng, err = plf.New(start, w.in.pats, m, prov)
		return err
	})
	if err != nil {
		w.close()
		return nil, err
	}
	err = e.rec.phase(kSetupFirstTraversal, func() error {
		_, err := w.eng.LogLikelihood()
		return err
	})
	if err != nil {
		w.close()
		return nil, err
	}
	// The search's initial branch smoothing is this workload's warm-up:
	// the timed phase resumes after it and is SPR rounds only.
	w.srch = search.New(w.eng, search.Options{SPRRadius: 5})
	err = e.rec.phase(kSetupWarmup, func() (err error) {
		w.lnl0, err = w.srch.SmoothBranches(w.srch.Opts.SmoothPasses, w.srch.Opts.Epsilon)
		return err
	})
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *searchInst) measure(more func(int, time.Duration) bool) (timed, error) {
	var t timed
	w.stats0 = w.eng.Stats
	if w.stack != nil {
		if err := w.stack.mark(); err != nil {
			return t, err
		}
	}
	w.srch.Opts.Resume = &search.Progress{LnL: w.lnl0, StartLnL: w.lnl0}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w.rec.startTiming()
	start := time.Now()
	seen, last := w.eng.Stats.SumTables, start
	w.eng.SetSafePoint(func() error {
		n := w.eng.Stats.SumTables
		if n == seen {
			return nil
		}
		now := time.Now()
		// Exactly one optimisation since the previous boundary is one
		// insertion (or one smoothed branch); several back to back had
		// no newview between them and cannot be told apart, so they
		// give no sample.
		if n-seen == 1 {
			t.lat = append(t.lat, now.Sub(last))
		}
		seen, last = n, now
		if !more(int(n-w.stats0.SumTables), now.Sub(start)) {
			cancel() // the search stops at the next junction
		}
		return nil
	})
	span := w.rec.beginOp()
	res, err := w.srch.RunCtx(ctx)
	if ferr := w.stack.flush(); err == nil {
		err = ferr
	}
	t.wall = time.Since(start)
	w.rec.endOp(span)
	w.eng.SetSafePoint(nil)
	var stopped *search.Interrupted
	if err != nil && !errors.As(err, &stopped) {
		return t, err
	}
	w.res = res
	if w.stack != nil {
		t.mgr = w.stack.mgr.Stats()
	}
	t.attempted = res.TestedMoves
	t.lnlBits = []uint64{math.Float64bits(res.LnL)}

	// The answer is the tree: its likelihood on a fresh in-RAM engine
	// must agree with what the out-of-core search reports.
	fresh, err := w.in.ramEngine(w.eng.T.Clone(), plf.KernelAuto)
	if err != nil {
		return t, err
	}
	check, err := fresh.LogLikelihood()
	if err != nil {
		return t, err
	}
	if t.attempted == 0 || math.Abs(check-res.LnL) > 1e-9*math.Abs(check) {
		fmt.Fprintf(os.Stderr, "search-ooc: final tree re-evaluates to %v, search reported %v\n", check, res.LnL)
		t.failed = t.attempted
		t.lat = nil
	}
	return t, nil
}

func (w *searchInst) layers(t timed, m map[string]float64) {
	attributed := plfLayers(w.rec, w.stats0, w.eng.Stats, w.in.pats.NumPatterns(), m)
	if w.stack != nil {
		attributed += w.stack.layers(w.rec, w.eng.Provider().VectorLen(), m)
	}
	m["search.moves_tested"] = float64(w.res.TestedMoves)
	m["search.moves_accepted"] = float64(w.res.AcceptedMoves)
	m["search.lnl_gain"] = w.res.LnL - w.lnl0
	m["bench.unattributed_ratio"] = (t.wall.Seconds() - attributed) / t.wall.Seconds()
}

func (w *searchInst) close() error { return closeEngine(w.eng, w.stack) }
