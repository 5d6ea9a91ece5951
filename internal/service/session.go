package service

// Session — one tenant of the daemon: an alignment + model + tree bound
// to a PLF engine, all engine work serialised on a single loop
// goroutine (the ooc manager and plf engine are single-API-goroutine
// subsystems; the loop IS that goroutine for the session's lifetime).
// Evaluates reach it on their own channel and ride batches the loop
// gathers itself; the HTTP handlers, idle reaper and governor send
// every other piece of engine work through do(), so batches, optimise
// jobs, parks, revives and quota resizes interleave at operation
// boundaries — the same safe points the governance layer was built
// around.
//
// A session has three states: active (engine live), parked (engine torn
// down, exact-resume checkpoint on disk) and closed.
// Parking is the multi-tenant memory story: an idle tenant costs disk,
// not RAM, and the next request revives it bit-identically via the
// checkpoint-v2 resume path (PR 5), re-admitted under whatever budget
// is left.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/tree"
)

type sessionState int

const (
	stateActive sessionState = iota
	stateParked
	stateClosed
)

func (st sessionState) String() string {
	switch st {
	case stateActive:
		return "active"
	case stateParked:
		return "parked"
	default:
		return "closed"
	}
}

// ErrSessionClosed is returned for requests that reach a session whose
// loop has been torn down (deleted, or the daemon is shutting down).
var ErrSessionClosed = errors.New("service: session closed")

// maxBatch caps one batch. Evaluates cost nothing extra for riding
// apart, so the cap only bounds how long a park, optimise or resize job
// waits behind one pass.
const maxBatch = 16

// job is one unit of work for the session loop.
type job struct {
	fn   func() error
	done chan error
}

// evalJob is one evaluate request plus its reply path. span, when
// non-nil, is the server-side request span: execBatch parents its
// engine/store spans under it and fills its cost ledger.
type evalJob struct {
	spec EvalSpec
	span *obs.Span
	enq  time.Time
	// res/err are filled on the loop goroutine; done is closed after.
	res  EvalReply
	err  error
	done chan struct{}
}

// Session is one named tenant. Mutable fields shared with other
// goroutines (state, ledgers, the engine pointers the metrics publisher
// reads) are guarded by mu; the engine itself is only ever TOUCHED from
// the loop goroutine.
type Session struct {
	name string
	cfg  SessionConfig
	srv  *Server

	jobs   chan job
	submit chan *evalJob
	quit   chan struct{}
	// seq numbers the loop's batches (loop goroutine only).
	seq int64

	alnPath  string // persisted alignment (phylip) for restart revives
	ckptPath string // park checkpoint

	mu       sync.Mutex
	state    sessionState
	lastUsed time.Time
	// memory shape, set by bringUp and read by the governor; it outlives
	// the run it was computed for, so a parked session still reports it
	size  analysis.Sizing
	grant int64 // what the governor currently allows
	// search position (survives park/revive)
	lnl   float64
	round int
	// the manager counters of the parked incarnations, which publish
	// carries forward
	oocRequests, oocMisses int64

	// engine state: owned by the loop goroutine, the pointers written
	// under mu for the metrics publisher. run is nil while parked.
	pats *bio.Patterns
	run  *analysis.Run

	mx sessionMetrics
}

// sessionMetrics are the per-session instruments on the /debug
// endpoint, pre-resolved at registration. The activity counters are
// incremented in place and read back by infoSnapshot; the rest are set
// by publish.
type sessionMetrics struct {
	evals, batches, parks, revives, resizes *obs.Counter
	oocMisses, oocRequests                  *obs.Counter
	slots, parked                           *obs.Gauge
	lnl                                     *obs.FloatGauge
}

// newSession starts the loop; the engine is built by the first
// build/ensureLive job.
func newSession(srv *Server, cfg SessionConfig) *Session {
	s := &Session{
		name:     cfg.Name,
		cfg:      cfg,
		srv:      srv,
		jobs:     make(chan job),      // unbuffered: a successful send is a rendezvous with the loop
		submit:   make(chan *evalJob), // unbuffered too
		quit:     make(chan struct{}),
		alnPath:  filepath.Join(srv.cfg.DataDir, cfg.Name+".aln"),
		ckptPath: filepath.Join(srv.cfg.DataDir, cfg.Name+".ckpt"),
		lastUsed: time.Now(),
		state:    stateParked, // nothing live until build/revive
	}
	reg := srv.reg
	p := metricsPrefix(cfg.Name)
	s.mx = sessionMetrics{
		evals:       reg.Counter(p + "evals"),
		batches:     reg.Counter(p + "batches"),
		parks:       reg.Counter(p + "parks"),
		revives:     reg.Counter(p + "revives"),
		resizes:     reg.Counter(p + "resizes"),
		oocMisses:   reg.Counter(p + "ooc_misses"),
		oocRequests: reg.Counter(p + "ooc_requests"),
		slots:       reg.Gauge(p + "slots"),
		parked:      reg.Gauge(p + "parked"),
		lnl:         reg.FloatGauge(p + "lnl"),
	}
	reg.AddPublisher(p, s.publish)
	go s.loop()
	return s
}

// metricsPrefix is the registry name prefix of everything a session
// exports; DeleteSession removes what is under it.
func metricsPrefix(session string) string { return "svc.session." + session + "." }

// loop runs jobs one at a time until quit, and is the batcher: under
// concurrent clients every request runs here, so they queue behind each
// other anyway, and the loop turns that queue into batches in the style
// of group commit. It takes one evaluate, every other evaluate already
// waiting (up to maxBatch), and runs them at once as ONE engine pass.
// Requests that arrive while a pass or job runs queue behind it and
// form the next batch. No clock decides a batch, so a lone request
// never waits for company; a request that finds the loop idle only
// yields the processor once, so a burst's other submitters, already
// runnable, can join it. Nothing is lost by cutting a batch early: the
// ancestral vectors one pass validates stay valid for the next, as in
// the paper's incremental traversal. Results are bit-identical to
// running each request as its own fresh pass — vector reuse changes
// what is recomputed, never what is computed (the invariant every OOC
// layer of this repo is built on).
//
// The channels are unbuffered, so an accepted evaluate is a rendezvous:
// it rides exactly one batch and is always answered.
func (s *Session) loop() {
	for {
		var first *evalJob
		select {
		case j := <-s.jobs: // queued behind the last batch or job
			j.done <- j.fn()
			continue
		case first = <-s.submit:
		default:
			select {
			case j := <-s.jobs:
				j.done <- j.fn()
				continue
			case first = <-s.submit:
				// The loop was idle, so this may be the first of a
				// burst whose other submitters are runnable but not
				// yet at the channel: let them reach it. With nothing
				// else runnable this returns at once.
				runtime.Gosched()
			case <-s.quit:
				return
			}
		}
		batch := append(make([]*evalJob, 0, maxBatch), first)
	gather:
		for len(batch) < maxBatch {
			select {
			case j := <-s.submit:
				batch = append(batch, j)
			default:
				break gather
			}
		}
		s.seq++
		s.execBatch(batch)
		for _, j := range batch {
			if j.res == (EvalReply{}) && j.err == nil {
				j.err = errors.New("service: batch left the request unanswered")
			}
			close(j.done)
		}
	}
}

// do runs fn on the loop goroutine and returns its error. Returns
// ErrSessionClosed when the loop is gone.
func (s *Session) do(fn func() error) error {
	j := job{fn: fn, done: make(chan error, 1)}
	select {
	case s.jobs <- j:
		return <-j.done
	case <-s.quit:
		return ErrSessionClosed
	}
}

// touch stamps the idle-reaper clock.
func (s *Session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// publish mirrors the session's gauges and manager counters into its
// /debug instruments. Runs on registry Snapshot from any goroutine.
func (s *Session) publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mx.lnl.Set(s.lnl)
	if s.state == stateParked {
		s.mx.parked.Set(1)
	} else {
		s.mx.parked.Set(0)
	}
	requests, misses := s.oocRequests, s.oocMisses
	if mgr := s.manager(); mgr != nil {
		s.mx.slots.Set(int64(mgr.Slots()))
		st := mgr.Stats()
		requests, misses = requests+st.Requests, misses+st.Misses
	} else {
		s.mx.slots.Set(0)
	}
	s.mx.oocRequests.Set(requests)
	s.mx.oocMisses.Set(misses)
}

// manager returns the live out-of-core manager, nil in-core or parked.
// Callers hold mu or run on the loop goroutine.
func (s *Session) manager() *ooc.Manager {
	if s.run == nil {
		return nil
	}
	return s.run.Manager
}

// info snapshots the status document.
func (s *Session) infoSnapshot() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := SessionInfo{
		Name:       s.name,
		State:      s.state.String(),
		OutOfCore:  s.size.OutOfCore,
		QuotaBytes: s.size.Quota,
		GrantBytes: s.grant,
		LnL:        s.lnl,
		LnLBits:    FormatLnLBits(s.lnl),
		Evals:      s.mx.evals.Value(),
		Batches:    s.mx.batches.Value(),
		Parks:      s.mx.parks.Value(),
		Revives:    s.mx.revives.Value(),
		LastUsed:   s.lastUsed,
	}
	if s.pats != nil {
		in.Taxa = s.pats.NumTaxa()
		in.Sites = s.pats.TotalSites()
		in.Patterns = s.pats.NumPatterns()
	}
	if mgr := s.manager(); mgr != nil {
		in.Slots = mgr.Slots()
	}
	return in
}

// memShape is the governor's view: (active, out-of-core, quota bytes,
// full in-core bytes, bytes per vector, vector count).
func (s *Session) memShape() (active, outOfCore bool, quota, need, vecBytes int64, nVecs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateActive, s.size.OutOfCore, s.size.Quota, s.size.Need, s.size.VecBytes, s.size.NumVectors
}

// ---------------------------------------------------------------------
// Build (create-time) and revive (park checkpoint) — both end in
// bringUp, which runs the shared analysis.Size → admit → analysis.Open.

// build loads the alignment, constructs model and starting tree, and
// brings the engine up. Runs on the loop goroutine at create time.
func (s *Session) build() error {
	aln, pats, err := analysis.Load(s.cfg)
	if err != nil {
		return err
	}
	// Persist the alignment next to the checkpoint: a restarted daemon
	// revives the session from these two files alone.
	f, err := os.Create(s.alnPath)
	if err != nil {
		return err
	}
	if err := bio.WritePhylip(f, aln); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	in, err := analysis.Build(s.cfg, pats)
	if err != nil {
		return err
	}
	// Normalise the tree through a Newick round trip. Likelihoods are
	// representation-sensitive in floating point (edge order picks the
	// evaluation point; adjacency order the summation order), and a
	// revive rebuilds its tree via ParseNewick — so the FIRST build must
	// walk the parse representation too, or the session's bits would
	// change across its first park/revive cycle.
	in.Tree, err = tree.ParseNewick(tree.WriteNewick(in.Tree))
	if err != nil {
		return err
	}
	return s.bringUp(in)
}

// bringUp sizes the vector set, asks the governor for admission, opens
// the run over a fresh store and activates the session. A revive enters
// here exactly like a create: its engine recomputes every vector before
// reading it.
func (s *Session) bringUp(in *analysis.Inputs) error {
	sz, err := analysis.Size(s.cfg, in)
	if err != nil {
		return err
	}
	grant, err := s.srv.admit(s, sz)
	if err != nil {
		return err
	}
	run, err := analysis.Open(s.cfg, analysis.Options{Stack: s.stackSpec()}, in, sz, grant)
	if err != nil {
		return fmt.Errorf("service: session %q: %w", s.name, err)
	}
	// Per-session tier counters on the daemon's /debug/vars. A revive
	// builds a fresh TieredStore; re-instrumenting finds the same named
	// instruments (the registry is idempotent by name) and its publisher
	// replaces the parked incarnation's, releasing the closed store.
	ooc.InstrumentTieredStoreAs(s.srv.reg, run.Stack.Tier, metricsPrefix(s.name)+"tier.")
	s.mu.Lock()
	s.pats, s.run = in.Patterns, run
	s.size, s.grant = sz, grant
	s.state = stateActive
	s.mu.Unlock()
	return nil
}

// stackSpec describes the session's store stack: the
// backing file under DataDir, or — when the daemon has a StoreURL — the
// session's remote object behind a write-back cache under
// DataDir/<name>.cache. Opening and deleting the session's store both
// start from this one description.
func (s *Session) stackSpec() ooc.StackSpec {
	cfg := s.srv.cfg
	spec := ooc.StackSpec{Path: filepath.Join(cfg.DataDir, s.name+".vec")}
	if cfg.StoreURL != "" {
		spec.URL = sessionObjectURL(cfg.StoreURL, s.name)
		spec.CacheDir = filepath.Join(cfg.DataDir, s.name+".cache")
		spec.CacheBytes, spec.RemoteDeadline = cfg.CacheBytes, cfg.RemoteDeadline
	}
	return spec
}

// sessionObjectURL maps the daemon's configured store endpoint to the
// object URL for one named session. The endpoint is either bare
// (remote://host:port → object <name>.vec) or carries one namespace
// segment (remote://host:port/ns → object ns.<name>.vec), so several
// daemons can share one object server; the object stays a single path
// segment either way, which is all the remote protocol allows.
func sessionObjectURL(storeURL, name string) string {
	base := strings.TrimSuffix(storeURL, "/")
	if host, ns, ok := strings.Cut(strings.TrimPrefix(base, "remote://"), "/"); ok && ns != "" {
		return "remote://" + host + "/" + ns + "." + name + ".vec"
	}
	return base + "/" + name + ".vec"
}

// ensureLive revives a parked session from its checkpoint. Runs on the
// loop goroutine; a no-op when the session is already active.
func (s *Session) ensureLive() error {
	s.mu.Lock()
	st := s.state
	s.mu.Unlock()
	switch st {
	case stateActive:
		return nil
	case stateClosed:
		return ErrSessionClosed
	}
	ck, err := checkpoint.Load(s.ckptPath)
	if err != nil {
		return fmt.Errorf("service: reviving %q: %w", s.name, err)
	}
	t, m, err := ck.Restore()
	if err != nil {
		return fmt.Errorf("service: reviving %q: %w", s.name, err)
	}
	pats := s.pats
	if pats == nil {
		// A restarted daemon: the patterns of the one that parked the
		// session are gone, the alignment it persisted is not.
		_, pats, err = analysis.Load(analysis.Spec{Path: s.alnPath, DataType: s.cfg.DataType})
		if err != nil {
			return fmt.Errorf("service: session %q alignment: %w", s.name, err)
		}
	}
	if err := s.bringUp(&analysis.Inputs{Patterns: pats, Model: m, Tree: t}); err != nil {
		return err
	}
	s.mu.Lock()
	s.lnl, s.round = ck.LnL, ck.Round
	s.mu.Unlock()
	s.mx.revives.Inc()
	s.srv.noteRevive()
	s.srv.rebalance()
	return nil
}

// park checkpoints the session and tears the engine down. Runs on the
// loop goroutine; a no-op unless active. The checkpoint carries the
// session config, so a restarted daemon can rebuild the session from
// disk alone.
func (s *Session) park() error {
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return nil
	}
	lnl, round := s.lnl, s.round
	s.mu.Unlock()

	ck := checkpoint.Capture(s.run.Engine.T, s.run.Engine.M, lnl, round)
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return err
	}
	ck.Meta = map[string]string{
		"service.session": s.name,
		"service.config":  string(cfgJSON),
	}
	if err := checkpoint.Save(s.ckptPath, ck); err != nil {
		return err
	}
	s.shutdownEngine()
	s.mu.Lock()
	s.state = stateParked
	s.mu.Unlock()
	s.mx.parks.Inc()
	s.srv.notePark()
	s.srv.rebalance()
	return nil
}

// shutdownEngine releases every live resource. Loop goroutine only.
func (s *Session) shutdownEngine() {
	if s.run == nil {
		return
	}
	s.run.Close()
	s.mu.Lock()
	if mgr := s.manager(); mgr != nil {
		st := mgr.Stats()
		s.oocRequests += st.Requests
		s.oocMisses += st.Misses
	}
	s.run = nil
	s.mu.Unlock()
}

// close tears the session down for good in one loop job: it parks the
// session (remove deletes its on-disk files instead), releases the
// engine and marks the session closed, so a request the loop takes
// afterwards answers ErrSessionClosed and cannot revive it. Returns the
// park's error.
func (s *Session) close(remove bool) error {
	err := s.do(func() error {
		var err error
		if !remove {
			err = s.park()
		}
		s.shutdownEngine()
		s.mu.Lock()
		s.state = stateClosed
		s.mu.Unlock()
		return err
	})
	close(s.quit)
	if remove {
		os.Remove(s.alnPath)
		os.Remove(s.ckptPath)
		s.stackSpec().Remove()
	}
	return err
}

// ---------------------------------------------------------------------
// Jobs.

// execBatch runs one batch the loop gathered as ONE engine pass, on the
// loop goroutine. The first request pays whatever traversal its edge
// needs; later requests reuse every ancestral vector that is still
// valid — bit-identical to fresh passes, just cheaper.
//
// Tracing: the batch runs under one shared engine-pass span, parented
// in the first traced request's trace (a span cannot have parents in
// two traces, so the other traced requests record flow LINKS to it —
// the Chrome export draws the arrows). Around each request's slice of
// the pass, Run.SetSpan points the engine/manager/tier at that
// request's span (the tier loads it atomically per remote request, so
// the hand-off is race-free), and the before/after movement of the layer counters becomes the
// request's cost ledger. This loop is the only goroutine driving the
// engine, but the pipeline's writer pushes a dirty victim when it gets
// to it: a write-back PUT is counted in the slice of whichever request
// it lands in, while its pipe.write_back span stays parented to the
// evicting request.
func (s *Session) execBatch(batch []*evalJob) {
	if err := s.ensureLive(); err != nil {
		for _, j := range batch {
			j.err = err
		}
		return
	}
	var pass *obs.Span
	for _, j := range batch {
		if j.span != nil {
			pass = j.span.StartChild("svc.engine_pass")
			pass.SetAttr("batch", s.seq)
			pass.SetAttr("size", int64(len(batch)))
			break
		}
	}
	execStart := time.Now()
	for _, j := range batch {
		var before costSnapshot
		if pass != nil {
			s.run.SetSpan(j.span)
		}
		if j.span != nil {
			j.span.EmitChild("svc.batch_wait", j.enq, execStart.Sub(j.enq))
			before = s.costSnapshot()
		}
		lnl, jerr := s.evalOne(j.spec)
		var cost *obs.Cost
		if j.span != nil {
			delta := s.costSnapshot().sub(before)
			delta.WaitMicros = execStart.Sub(j.enq).Microseconds()
			j.span.AddCost(delta)
			if pass != nil && j.span.TraceID() != pass.TraceID() {
				j.span.LinkTo(pass)
			}
			c := delta
			cost = &c
		}
		if jerr != nil {
			j.err = jerr
			continue
		}
		j.res = EvalReply{
			Session:    s.name,
			Edge:       j.spec.Edge,
			LnL:        lnl,
			LnLBits:    FormatLnLBits(lnl),
			Batch:      s.seq,
			BatchSize:  len(batch),
			WaitMicros: execStart.Sub(j.enq).Microseconds(),
			Cost:       cost,
		}
		if j.span != nil {
			j.res.TraceID = j.span.TraceID().String()
		}
	}
	if pass != nil {
		s.run.SetSpan(nil)
		pass.End()
	}
	exec := time.Since(execStart).Microseconds()
	for _, j := range batch {
		if j.span != nil {
			j.span.AddCost(obs.Cost{ExecMicros: exec})
		}
		if j.err == nil {
			j.res.ExecMicros = exec
			if j.res.Cost != nil {
				j.res.Cost.ExecMicros = exec
			}
		}
	}
	s.mx.batches.Inc()
	s.mx.evals.Add(int64(len(batch)))
	s.srv.noteBatch(len(batch), execStart, exec)
}

// costSnapshot captures the monotonic layer counters cost attribution
// differences around one request (loop goroutine; see execBatch for the
// write-backs the pipeline advances them with).
type costSnapshot struct {
	mgr     ooc.Stats
	tier    ooc.TierStats
	hasTier bool
	eng     plf.Stats
}

func (s *Session) costSnapshot() costSnapshot {
	var snap costSnapshot
	if mgr := s.manager(); mgr != nil {
		snap.mgr = mgr.Stats()
	}
	if tier := s.tierStore(); tier != nil {
		snap.tier = tier.Stats()
		snap.hasTier = true
	}
	if s.run != nil {
		snap.eng = s.run.Engine.Stats
	}
	return snap
}

// sub converts the counter movement since before into one request's
// cost ledger entry. Under a tiered store the local/remote split comes
// from the tier counters; a plain backing file charges every manager
// read as local.
func (after costSnapshot) sub(before costSnapshot) obs.Cost {
	c := obs.Cost{
		VectorsFaulted: after.mgr.Misses - before.mgr.Misses,
		Recomputes:     after.eng.Recoveries - before.eng.Recoveries,
		Newviews:       after.eng.Newviews - before.eng.Newviews,
		PCacheHits:     after.eng.PCacheHits - before.eng.PCacheHits,
	}
	if after.hasTier {
		c.LocalReads = after.tier.CacheHits - before.tier.CacheHits
		c.BytesLocal = after.tier.BytesFromCache - before.tier.BytesFromCache
		c.RemoteGets = after.tier.RemoteReads - before.tier.RemoteReads
		c.BytesRemote = after.tier.BytesFetched - before.tier.BytesFetched
		c.BytesPushed = after.tier.BytesPushed - before.tier.BytesPushed
	} else {
		c.LocalReads = after.mgr.Reads - before.mgr.Reads
		c.BytesLocal = after.mgr.BytesRead - before.mgr.BytesRead
	}
	return c
}

// evalOne answers one evaluate spec. Loop goroutine, engine live.
func (s *Session) evalOne(spec EvalSpec) (float64, error) {
	eng := s.run.Engine
	if spec.Edge < 0 || spec.Edge >= len(eng.T.Edges) {
		return 0, fmt.Errorf("service: edge %d out of range [0,%d)", spec.Edge, len(eng.T.Edges))
	}
	if l := spec.Length; l != nil && !(*l >= tree.MinBranchLength && *l <= tree.MaxBranchLength) {
		return 0, fmt.Errorf("service: length %g outside [%g, %g]", *l, tree.MinBranchLength, tree.MaxBranchLength)
	}
	edge := eng.T.Edges[spec.Edge]
	if spec.Full {
		eng.InvalidateAll()
	}
	if spec.Length != nil {
		return eng.EvaluateAtLength(edge, *spec.Length)
	}
	lnl, err := eng.LogLikelihoodAt(edge)
	if err == nil {
		s.mu.Lock()
		s.lnl = lnl
		s.mu.Unlock()
	}
	return lnl, err
}

// Evaluate submits one request to the loop, which batches it with
// whatever else is waiting.
func (s *Session) Evaluate(spec EvalSpec) (EvalReply, error) {
	return s.EvaluateCtx(context.Background(), spec, nil)
}

// EvaluateCtx is Evaluate under a server-side request span and the
// request's context: execBatch parents its engine/store spans beneath
// sp and fills the reply's trace id and cost ledger. When ctx expires
// before the reply, the caller gets ctx.Err() at once; the request
// itself still runs with its batch (evaluates are pure, so the orphaned
// result is simply dropped) — the deadline bounds the CALLER's wait,
// which is what an HTTP request timeout means.
func (s *Session) EvaluateCtx(ctx context.Context, spec EvalSpec, sp *obs.Span) (EvalReply, error) {
	s.touch()
	j := &evalJob{spec: spec, span: sp, enq: time.Now(), done: make(chan struct{})}
	select {
	case s.submit <- j:
	case <-s.quit:
		return EvalReply{}, ErrSessionClosed
	case <-ctx.Done():
		return EvalReply{}, ctx.Err()
	}
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return EvalReply{}, ctx.Err()
	}
}

// tierStore returns the live tiered store (nil for local sessions or
// while parked).
func (s *Session) tierStore() *ooc.TieredStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run == nil {
		return nil
	}
	return s.run.Stack.Tier
}

// Optimize smooths every branch length on the session tree.
func (s *Session) Optimize(spec OptimizeSpec) (OptimizeReply, error) {
	s.touch()
	if spec.Passes <= 0 {
		spec.Passes = 2
	}
	if spec.Eps <= 0 {
		spec.Eps = 1e-3
	}
	var rep OptimizeReply
	err := s.do(func() error {
		if err := s.ensureLive(); err != nil {
			return err
		}
		lnl, err := search.New(s.run.Engine, search.Options{}).SmoothBranches(spec.Passes, spec.Eps)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.lnl = lnl
		s.round++
		newick := tree.WriteNewick(s.run.Engine.T)
		s.mu.Unlock()
		rep = OptimizeReply{Session: s.name, LnL: lnl, LnLBits: FormatLnLBits(lnl), Newick: newick}
		return nil
	})
	return rep, err
}

// Tree returns the current Newick (loop goroutine: the tree mutates
// only there).
func (s *Session) Tree() (string, error) {
	var nwk string
	err := s.do(func() error {
		if err := s.ensureLive(); err != nil {
			return err
		}
		nwk = tree.WriteNewick(s.run.Engine.T)
		return nil
	})
	return nwk, err
}

// resizeTo is the governor's enforcement hook: resize the live pool to
// what the grant buys. Parked/in-core sessions ignore the call.
func (s *Session) resizeTo(grant int64) {
	_ = s.do(func() error {
		if s.run == nil {
			return nil
		}
		resized, err := s.run.Resize(grant)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.grant = grant
		s.mu.Unlock()
		if resized {
			s.mx.resizes.Inc()
			s.srv.noteResize()
		}
		return nil
	})
}
