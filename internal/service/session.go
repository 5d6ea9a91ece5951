package service

// Session — one tenant of the daemon: an alignment + model + tree bound
// to a PLF engine. The ooc manager and plf engine each have one API
// goroutine at a time, so a session is a lock: every piece of engine
// work (an HTTP request's, the idle reaper's park, the governor's
// resize) takes the session, runs on its caller's goroutine and gives
// it back, and the next waiter takes it. Work interleaves at operation
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

// ErrSessionClosed is returned for requests that reach a session that
// has been torn down (deleted, or the daemon is shutting down).
var ErrSessionClosed = errors.New("service: session closed")

// Session is one named tenant. Mutable fields shared with other
// goroutines (state, ledgers, the engine pointers the metrics publisher
// reads) are guarded by mu; the engine itself is only ever TOUCHED by
// the holder of sem.
type Session struct {
	name string
	cfg  SessionConfig
	srv  *Server

	// sem is the session itself, a one-slot semaphore: whoever has sent
	// into it drives the engine until it receives the token back.
	// Blocked senders are served in arrival order.
	sem chan struct{}

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

	// engine state: owned by the holder of sem, the pointers written
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
	evals, parks, revives, resizes *obs.Counter
	oocMisses, oocRequests         *obs.Counter
	slots, parked                  *obs.Gauge
	lnl                            *obs.FloatGauge
}

// newSession registers the session's instruments; the engine is built
// by the first build or ensureLive.
func newSession(srv *Server, cfg SessionConfig) *Session {
	s := &Session{
		name:     cfg.Name,
		cfg:      cfg,
		srv:      srv,
		sem:      make(chan struct{}, 1),
		alnPath:  filepath.Join(srv.cfg.DataDir, cfg.Name+".aln"),
		ckptPath: filepath.Join(srv.cfg.DataDir, cfg.Name+".ckpt"),
		lastUsed: time.Now(),
		state:    stateParked, // nothing live until build/revive
	}
	reg := srv.reg
	p := metricsPrefix(cfg.Name)
	s.mx = sessionMetrics{
		evals:       reg.Counter(p + "evals"),
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
	return s
}

// metricsPrefix is the registry name prefix of everything a session
// exports; DeleteSession removes what is under it.
func metricsPrefix(session string) string { return "svc.session." + session + "." }

// acquire takes the session, waiting under ctx behind whoever holds it.
// A closed session is not taken: ErrSessionClosed.
func (s *Session) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	closed := s.state == stateClosed
	s.mu.Unlock()
	if closed {
		s.release()
		return ErrSessionClosed
	}
	return nil
}

// release gives the session back to the next waiter. When one took it,
// the releaser also gives up its processor, so the waiter drives the
// engine at once on this CPU instead of after a wake-up on another:
// the engine is the session's bottleneck, and the releaser has only its
// reply left to write.
func (s *Session) release() {
	<-s.sem
	if len(s.sem) == 1 {
		runtime.Gosched()
	}
}

// do runs fn while holding the session, taken under ctx.
func (s *Session) do(ctx context.Context, fn func() error) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	return fn()
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
// Callers hold mu or the session.
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
// brings the engine up. Runs holding the session, at create time.
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
	in, err := analysis.Build(context.Background(), s.cfg, pats)
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
	return s.bringUp(context.Background(), in)
}

// bringUp sizes the vector set, asks the governor for admission, opens
// the run over a fresh store and activates the session. A revive enters
// here exactly like a create: its engine recomputes every vector before
// reading it. ctx bounds the store's open.
func (s *Session) bringUp(ctx context.Context, in *analysis.Inputs) error {
	sz, err := analysis.Size(s.cfg, in)
	if err != nil {
		return err
	}
	grant, err := s.srv.admit(s, sz)
	if err != nil {
		return err
	}
	run, err := analysis.Open(ctx, s.cfg, analysis.Options{Stack: s.stackSpec()}, in, sz, grant)
	if err != nil {
		return fmt.Errorf("service: session %q: %w", s.name, err)
	}
	// Per-session tier counters on the daemon's /debug/vars. A revive
	// builds a fresh TieredStore, which binds to the same named
	// instruments and counts on from the parked incarnations' totals.
	ooc.InstrumentTieredStore(s.srv.reg, run.Stack.Tier, metricsPrefix(s.name)+"tier.")
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

// ensureLive revives a parked session from its checkpoint, its store
// opened under ctx. Runs holding the session; a no-op when the session
// is already active.
func (s *Session) ensureLive(ctx context.Context) error {
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
	if err := s.bringUp(ctx, &analysis.Inputs{Patterns: pats, Model: m, Tree: t}); err != nil {
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

// park checkpoints the session and tears the engine down. Runs holding
// the session; a no-op unless active. The checkpoint carries the
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

// shutdownEngine releases every live resource. Runs holding the session.
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

// close tears the session down for good while holding it: it parks the
// session (remove deletes its on-disk files instead), releases the
// engine and marks the session closed, so a request that takes the
// session afterwards answers ErrSessionClosed and cannot revive it.
// Returns the park's error.
func (s *Session) close(remove bool) error {
	err := s.do(context.Background(), func() error {
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
	if remove {
		os.Remove(s.alnPath)
		os.Remove(s.ckptPath)
		s.stackSpec().Remove()
	}
	return err
}

// ---------------------------------------------------------------------
// Requests.

// costSnapshot captures the monotonic layer counters cost attribution
// differences around one request, taken while holding the session. The
// pipeline's writer pushes a dirty victim when it gets to it, so a
// write-back PUT is counted in whichever request it lands in, while its
// pipe.write_back span stays parented to the evicting request.
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

// evalOne answers one evaluate spec. Holding the session, engine live.
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

// Evaluate answers one evaluate request.
func (s *Session) Evaluate(spec EvalSpec) (EvalReply, error) {
	return s.EvaluateCtx(context.Background(), spec)
}

// EvaluateCtx is Evaluate under the request's context. The request
// waits for the session under ctx (span svc.queue_wait), then runs the
// engine itself: evaluates change no tree, so the run also stops at
// ctx's deadline, leaving only vectors the next request recomputes.
// Only the deadline: the pipeline may still be pushing this request's
// write-backs after it has answered, and ending them with the request
// would only push them again later. When ctx carries a span
// (obs.ContextWithSpan) the engine and store spans are parented beneath
// it, and the movement of the layer counters over the request becomes
// the reply's cost ledger.
func (s *Session) EvaluateCtx(ctx context.Context, spec EvalSpec) (EvalReply, error) {
	sp := obs.SpanFromContext(ctx)
	s.touch()
	enq := time.Now()
	if err := s.acquire(ctx); err != nil {
		return EvalReply{}, err
	}
	defer s.release()
	start := time.Now()
	sp.EmitChild("svc.queue_wait", enq, start.Sub(enq))
	if err := s.ensureLive(ctx); err != nil {
		return EvalReply{}, err
	}
	var before costSnapshot
	if sp != nil {
		before = s.costSnapshot()
	}
	runCtx := context.WithoutCancel(ctx)
	if d, ok := ctx.Deadline(); ok {
		var stop context.CancelFunc
		runCtx, stop = context.WithDeadline(runCtx, d)
		_ = stop // its own timer ends runCtx at d; stop on return would end the write-backs in flight
	}
	s.run.SetContext(runCtx)
	lnl, err := s.evalOne(spec)
	s.run.SetContext(nil)
	exec := time.Since(start)
	s.mx.evals.Inc()
	s.srv.mxEvals.Inc()
	if err != nil {
		return EvalReply{}, err
	}
	rep := EvalReply{
		Session:    s.name,
		Edge:       spec.Edge,
		LnL:        lnl,
		LnLBits:    FormatLnLBits(lnl),
		BatchSize:  1,
		WaitMicros: start.Sub(enq).Microseconds(),
		ExecMicros: exec.Microseconds(),
	}
	if sp != nil {
		cost := s.costSnapshot().sub(before)
		cost.WaitMicros, cost.ExecMicros = rep.WaitMicros, rep.ExecMicros
		sp.AddCost(cost)
		rep.TraceID = sp.TraceID().String()
		rep.Cost = &cost
	}
	return rep, nil
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

// Optimize smooths every branch length on the session tree. ctx bounds
// the wait for the session and a revive; once it holds the session the
// smoothing runs to completion, so the tree is never left half-moved.
func (s *Session) Optimize(ctx context.Context, spec OptimizeSpec) (OptimizeReply, error) {
	s.touch()
	if spec.Passes <= 0 {
		spec.Passes = 2
	}
	if spec.Eps <= 0 {
		spec.Eps = 1e-3
	}
	var rep OptimizeReply
	err := s.do(ctx, func() error {
		if err := s.ensureLive(ctx); err != nil {
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

// Tree returns the current Newick, read holding the session (the tree
// mutates only there); ctx bounds the wait and a revive.
func (s *Session) Tree(ctx context.Context) (string, error) {
	var nwk string
	err := s.do(ctx, func() error {
		if err := s.ensureLive(ctx); err != nil {
			return err
		}
		nwk = tree.WriteNewick(s.run.Engine.T)
		return nil
	})
	return nwk, err
}

// resizeTo is the governor's enforcement hook: resize the live pool to
// what the grant buys. Parked/in-core sessions ignore the call. It
// waits for the session however long it is held: the grant must land.
func (s *Session) resizeTo(grant int64) {
	_ = s.do(context.Background(), func() error {
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
