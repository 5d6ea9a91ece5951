package service

// Session — one tenant of the daemon: an alignment + model + tree bound
// to a PLF engine, all engine work serialised on a single loop
// goroutine (the ooc manager and plf engine are single-API-goroutine
// subsystems; the loop IS that goroutine for the session's lifetime).
// The batcher, HTTP handlers, idle reaper and governor all talk to the
// engine exclusively through do(), so batches, optimise jobs, parks,
// revives and quota resizes interleave at operation boundaries — the
// same safe points the governance layer was built around.
//
// A session has three states: active (engine live), parked (engine torn
// down, exact-resume checkpoint + store manifest on disk) and closed.
// Parking is the multi-tenant memory story: an idle tenant costs disk,
// not RAM, and the next request revives it bit-identically via the
// checkpoint-v2 resume path (PR 5), re-admitted under whatever budget
// is left.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/distance"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/parsimony"
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

// job is one unit of work for the session loop.
type job struct {
	fn   func() error
	done chan error
}

// Session is one named tenant. Mutable fields shared with other
// goroutines (state, ledgers, the engine pointers the metrics publisher
// reads) are guarded by mu; the engine itself is only ever TOUCHED from
// the loop goroutine.
type Session struct {
	name string
	cfg  SessionConfig
	srv  *Server

	jobs chan job
	quit chan struct{}

	alnPath  string // persisted alignment (phylip) for restart revives
	ckptPath string // park checkpoint
	vecPath  string // out-of-core backing file (sidecar at .sum)

	mu       sync.Mutex
	state    sessionState
	lastUsed time.Time
	// memory shape, set by setupEngine and read by the governor
	outOfCore bool
	nVecs     int
	vecBytes  int64 // bytes per ancestral vector
	needBytes int64 // nVecs * vecBytes (the in-core footprint)
	quota     int64 // configured vector quota (== needBytes when in-core)
	grant     int64 // what the governor currently allows
	// activity ledger (survives park/revive)
	lnl            float64
	round          int
	evals, batches int64
	parks, revives int64
	resizes        int64

	// engine state: owned by the loop goroutine, pointers mirrored
	// under mu for the metrics publisher.
	pats  *bio.Patterns
	m     *model.Model
	t     *tree.Tree
	eng   *plf.Engine
	mgr   *ooc.Manager
	stack *ooc.Stack // store stack under mgr; nil in-core and while parked
	wd    *ooc.Watchdog

	batcher *Batcher
	mx      sessionMetrics
}

// sessionMetrics are the per-session instruments on the /debug
// endpoint, pre-resolved at registration (nil-safe when the server has
// no registry).
type sessionMetrics struct {
	evals, batches, parks, revives, resizes *obs.Counter
	wdFailures, oocMisses, oocRequests      *obs.Counter
	slots, parked                           *obs.Gauge
	lnl                                     *obs.FloatGauge
}

// newSession wires the loop and batcher; the engine is built by the
// first build/ensureLive job.
func newSession(srv *Server, cfg SessionConfig) *Session {
	s := &Session{
		name:     cfg.Name,
		cfg:      cfg,
		srv:      srv,
		jobs:     make(chan job), // unbuffered: a successful send is a rendezvous with the loop
		quit:     make(chan struct{}),
		alnPath:  filepath.Join(srv.cfg.DataDir, cfg.Name+".aln"),
		ckptPath: filepath.Join(srv.cfg.DataDir, cfg.Name+".ckpt"),
		vecPath:  filepath.Join(srv.cfg.DataDir, cfg.Name+".vec"),
		lastUsed: time.Now(),
		state:    stateParked, // nothing live until build/revive
	}
	reg := srv.reg
	p := "svc.session." + cfg.Name + "."
	s.mx = sessionMetrics{
		evals:       reg.Counter(p + "evals"),
		batches:     reg.Counter(p + "batches"),
		parks:       reg.Counter(p + "parks"),
		revives:     reg.Counter(p + "revives"),
		resizes:     reg.Counter(p + "resizes"),
		wdFailures:  reg.Counter(p + "watchdog_failures"),
		oocMisses:   reg.Counter(p + "ooc_misses"),
		oocRequests: reg.Counter(p + "ooc_requests"),
		slots:       reg.Gauge(p + "slots"),
		parked:      reg.Gauge(p + "parked"),
		lnl:         reg.FloatGauge(p + "lnl"),
	}
	reg.AddPublisher(s.publish)
	go s.loop()
	s.batcher = newBatcher(srv.cfg.Batch, s.execBatch)
	return s
}

// loop runs jobs one at a time until quit.
func (s *Session) loop() {
	for {
		select {
		case j := <-s.jobs:
			j.done <- j.fn()
		case <-s.quit:
			return
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

// publish mirrors the session's ledger into its /debug instruments.
// Runs on registry Snapshot from any goroutine.
func (s *Session) publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mx.evals.Set(s.evals)
	s.mx.batches.Set(s.batches)
	s.mx.parks.Set(s.parks)
	s.mx.revives.Set(s.revives)
	s.mx.resizes.Set(s.resizes)
	s.mx.lnl.Set(s.lnl)
	if s.state == stateParked {
		s.mx.parked.Set(1)
	} else {
		s.mx.parked.Set(0)
	}
	if s.mgr != nil {
		s.mx.slots.Set(int64(s.mgr.Slots()))
		st := s.mgr.Stats()
		s.mx.oocRequests.Set(st.Requests)
		s.mx.oocMisses.Set(st.Misses)
	} else {
		s.mx.slots.Set(0)
	}
	if s.wd != nil {
		s.mx.wdFailures.Set(s.wd.Stats().Failures)
	}
}

// info snapshots the status document.
func (s *Session) infoSnapshot() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := SessionInfo{
		Name:       s.name,
		State:      s.state.String(),
		OutOfCore:  s.outOfCore,
		QuotaBytes: s.quota,
		GrantBytes: s.grant,
		LnL:        s.lnl,
		LnLBits:    FormatLnLBits(s.lnl),
		Evals:      s.evals,
		Batches:    s.batches,
		Parks:      s.parks,
		Revives:    s.revives,
		LastUsed:   s.lastUsed,
	}
	if s.pats != nil {
		in.Taxa = s.pats.NumTaxa()
		in.Sites = s.pats.TotalSites()
		in.Patterns = s.pats.NumPatterns()
	}
	if s.mgr != nil {
		in.Slots = s.mgr.Slots()
	}
	return in
}

// memShape is the governor's view: (active, out-of-core, quota bytes,
// full in-core bytes, bytes per vector, vector count).
func (s *Session) memShape() (active, outOfCore bool, quota, need, vecBytes int64, nVecs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateActive, s.outOfCore, s.quota, s.needBytes, s.vecBytes, s.nVecs
}

// ---------------------------------------------------------------------
// Build (create-time) and revive (park checkpoint) — both end in
// setupEngine, the single place an engine comes to life.

// build parses the alignment, constructs model and starting tree, and
// brings the engine up. Runs on the loop goroutine at create time.
func (s *Session) build() error {
	aln, err := s.readAlignment()
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
	pats, err := bio.Compress(aln)
	if err != nil {
		return err
	}
	m, err := buildModel(s.cfg, pats)
	if err != nil {
		return err
	}
	t, err := s.buildTree(pats)
	if err != nil {
		return err
	}
	// Normalise the tree through a Newick round trip. Likelihoods are
	// representation-sensitive in floating point (edge order picks the
	// evaluation point; adjacency order the summation order), and a
	// revive rebuilds its tree via ParseNewick — so the FIRST build must
	// walk the parse representation too, or the session's bits would
	// change across its first park/revive cycle.
	t, err = tree.ParseNewick(tree.WriteNewick(t))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pats = pats
	s.mu.Unlock()
	return s.setupEngine(t, m, nil)
}

// readAlignment loads the session's alignment from the inline text or
// the server-side path.
func (s *Session) readAlignment() (*bio.Alignment, error) {
	dtype := bio.DNA
	if strings.EqualFold(s.cfg.DataType, "aa") {
		dtype = bio.AA
	}
	alphabet := bio.NewAlphabet(dtype)
	var r *strings.Reader
	switch {
	case s.cfg.Alignment != "":
		r = strings.NewReader(s.cfg.Alignment)
	case s.cfg.Path != "":
		data, err := os.ReadFile(s.cfg.Path)
		if err != nil {
			return nil, err
		}
		r = strings.NewReader(string(data))
	default:
		return nil, fmt.Errorf("service: session %q has neither inline alignment nor path", s.name)
	}
	if strings.EqualFold(s.cfg.Format, "fasta") {
		return bio.ReadFASTA(r, alphabet)
	}
	return bio.ReadPhylip(r, alphabet)
}

// loadPatterns re-reads the persisted alignment — the restart-revive
// path, where the in-memory patterns of the original daemon are gone.
func (s *Session) loadPatterns() error {
	dtype := bio.DNA
	if strings.EqualFold(s.cfg.DataType, "aa") {
		dtype = bio.AA
	}
	f, err := os.Open(s.alnPath)
	if err != nil {
		return fmt.Errorf("service: session %q alignment: %w", s.name, err)
	}
	defer f.Close()
	aln, err := bio.ReadPhylip(f, bio.NewAlphabet(dtype))
	if err != nil {
		return err
	}
	pats, err := bio.Compress(aln)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pats = pats
	s.mu.Unlock()
	return nil
}

// buildModel mirrors the CLI's model construction so a session
// evaluates bit-identically to a one-shot run with the same flags.
func buildModel(cfg SessionConfig, pats *bio.Patterns) (*model.Model, error) {
	freqs := pats.BaseFrequencies()
	if cfg.UniformFreqs {
		for i := range freqs {
			freqs[i] = 1 / float64(len(freqs))
		}
	}
	var m *model.Model
	var err error
	switch strings.ToUpper(cfg.Model) {
	case "JC", "POISSON":
		m, err = model.NewJC(pats.Alphabet.States)
	case "K80":
		m, err = model.NewK80(cfg.Kappa)
	case "HKY":
		m, err = model.NewHKY(freqs, cfg.Kappa)
	case "GTR":
		if pats.Alphabet.States != 4 {
			return nil, fmt.Errorf("service: GTR is DNA-only; use POISSON for protein data")
		}
		m, err = model.NewGTR(freqs, []float64{1, 1, 1, 1, 1, 1}, 4)
	default:
		return nil, fmt.Errorf("service: unknown model %q", cfg.Model)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Alpha > 0 && cfg.Cats > 1 {
		if err := m.SetGamma(cfg.Alpha, cfg.Cats); err != nil {
			return nil, err
		}
	}
	if cfg.PInv > 0 {
		if err := m.SetInvariant(cfg.PInv); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildTree parses or constructs the starting topology.
func (s *Session) buildTree(pats *bio.Patterns) (*tree.Tree, error) {
	newick := s.cfg.Newick
	if newick == "" && s.cfg.TreePath != "" {
		data, err := os.ReadFile(s.cfg.TreePath)
		if err != nil {
			return nil, err
		}
		newick = string(data)
	}
	if newick != "" {
		t, err := tree.ParseNewick(newick)
		if err != nil {
			return nil, err
		}
		if t.NumTips != pats.NumTaxa() {
			return nil, fmt.Errorf("service: tree has %d tips, alignment %d taxa", t.NumTips, pats.NumTaxa())
		}
		return t, nil
	}
	switch strings.ToLower(s.cfg.StartTree) {
	case "parsimony", "mp":
		return parsimony.StepwiseAddition(pats, rand.New(rand.NewSource(s.cfg.Seed)))
	case "nj":
		return distance.NJTree(pats)
	case "random", "rand":
		return tree.RandomTopology(pats.Names, rand.New(rand.NewSource(s.cfg.Seed)), 0.05, 0.15)
	}
	return nil, fmt.Errorf("service: unknown start_tree %q", s.cfg.StartTree)
}

// setupEngine sizes the vector set, asks the governor for admission,
// builds the provider (in-memory, or an out-of-core manager over a
// checksummed backing file) and the engine, and activates the session.
// man, when non-nil, is a park checkpoint's store manifest: the backing
// file is adopted and validated instead of rebuilt, so a revive reuses
// the parked vectors byte-for-byte.
func (s *Session) setupEngine(t *tree.Tree, m *model.Model, man *ooc.Manifest) error {
	precision := s.cfg.Precision
	if precision == "" {
		precision = plf.PrecisionF64
	}
	vecLen, err := plf.CarrierLength(m, s.pats.NumPatterns(), precision)
	if err != nil {
		return err
	}
	n := t.NumInner()
	vecBytes := int64(vecLen) * 8
	need := int64(n) * vecBytes
	outOfCore := s.cfg.MemLimit > 0 && need > s.cfg.MemLimit
	quota := need
	if outOfCore {
		quota = s.cfg.MemLimit
		if quota < int64(ooc.MinSlots)*vecBytes {
			return fmt.Errorf("service: mem_limit %d B holds fewer than %d vectors of %d B (m >= 3)",
				quota, ooc.MinSlots, vecBytes)
		}
	}
	grant, err := s.srv.admit(s, outOfCore, quota, vecBytes)
	if err != nil {
		return err
	}

	var prov plf.VectorProvider
	if outOfCore {
		slots := int(grant / vecBytes)
		if slots < ooc.MinSlots {
			slots = ooc.MinSlots
		}
		if slots > n {
			slots = n
		}
		strat, err := ooc.StrategyByName(s.cfg.Strategy, n, t, s.cfg.Seed+1)
		if err != nil {
			return err
		}
		st, err := s.openStack(n, vecLen, man, precision)
		if err != nil {
			return err
		}
		// A tiered store's cache index and in-flight buffers live on the
		// same heap as the slots: charge them against the grant so the
		// session's true footprint stays inside it.
		if ov := ooc.StoreMemOverhead(st.Store); ov > 0 {
			slots = int((grant - ov) / vecBytes)
			if slots < ooc.MinSlots {
				slots = ooc.MinSlots
			}
			if slots > n {
				slots = n
			}
		}
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: n, VectorLen: vecLen, Slots: slots,
			Strategy: strat, ReadSkipping: true, Store: st.Store,
			Retry:      ooc.RetryPolicy{Max: 3},
			SyncWrites: true,
		})
		if err != nil {
			st.Close()
			return err
		}
		s.mu.Lock()
		s.mgr, s.stack = mgr, st
		s.mu.Unlock()
		prov = mgr
	} else {
		prov = plf.NewInMemoryProvider(n, vecLen)
	}

	eng, err := plf.NewWithPrecision(t, s.pats, m, prov, precision)
	if err != nil {
		s.closeProvider()
		return err
	}
	kernel := s.cfg.Kernel
	if kernel == "" {
		kernel = plf.KernelAuto
	}
	if err := eng.SetKernel(kernel); err != nil {
		eng.Close()
		s.closeProvider()
		return err
	}
	eng.SetWorkers(s.cfg.Workers)

	// The watchdog arbitrates the GLOBAL soft heap budget from inside
	// whichever session is computing: overshoot observed at this
	// session's safe points sheds this session's slots first, bounded
	// below by the floor and above by the governor's grant.
	if s.srv.cfg.MemBudget > 0 && s.mgr != nil {
		maxSlots := s.mgr.Slots()
		wd, err := ooc.NewWatchdog(s.mgr, ooc.WatchdogConfig{
			SoftBudget: s.srv.cfg.MemBudget,
			MaxSlots:   maxSlots,
		})
		if err != nil {
			eng.Close()
			s.closeProvider()
			return err
		}
		s.wd = wd
		eng.SetSafePoint(func() error { return wd.Check() })
	}

	s.mu.Lock()
	s.t, s.m, s.eng = t, m, eng
	s.outOfCore, s.nVecs, s.vecBytes, s.needBytes = outOfCore, n, vecBytes, need
	s.quota, s.grant = quota, grant
	s.state = stateActive
	s.mu.Unlock()
	return nil
}

// openStack opens the session's checksummed store stack: the backing
// file under DataDir, or — when the daemon has a StoreURL — the
// session's remote object behind a write-back cache under
// DataDir/<name>.cache. The sidecar stays local either way, so a park
// checkpoint's manifest verifies a revived session's remote vectors
// exactly like a local backing file. A non-nil man adopts and validates
// the parked state; failed adoption rebuilds (every vector is
// recomputable, so it costs I/O, never correctness).
func (s *Session) openStack(n, vecLen int, man *ooc.Manifest, precision string) (*ooc.Stack, error) {
	spec := ooc.StackSpec{
		TieredConfig: ooc.TieredConfig{NumVectors: n, VectorLen: vecLen},
		Path:         s.vecPath, Sidecar: s.vecPath + ".sum",
		Verify: true, Adopt: man != nil, Manifest: man, Precision: precision,
	}
	if cfg := s.srv.cfg; cfg.StoreURL != "" {
		spec.URL = sessionObjectURL(cfg.StoreURL, s.name)
		spec.CacheDir = filepath.Join(cfg.DataDir, s.name+".cache")
		spec.CacheBytes, spec.Lanes = cfg.CacheBytes, cfg.RemoteLanes
		spec.RemoteDeadline, spec.HedgeAfter = cfg.RemoteDeadline, cfg.HedgeAfter
		if cfg.SpillDir != "" {
			spec.SpillDir = filepath.Join(cfg.SpillDir, s.name+".spill")
		}
	}
	st, err := ooc.OpenStack(spec)
	if err != nil {
		return nil, fmt.Errorf("service: session %q store: %w", s.name, err)
	}
	// Per-session tier counters on the daemon's /debug/vars. A revive
	// builds a fresh TieredStore; re-instrumenting registers the same
	// named instruments (the registry is idempotent by name) and a newer
	// publisher, which runs after — and therefore overrides — the stale
	// one from the parked incarnation.
	ooc.InstrumentTieredStoreAs(s.srv.reg, st.Tier, "svc.session."+s.name+".tier.")
	return st, nil
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
	if s.pats == nil {
		if err := s.loadPatterns(); err != nil {
			return err
		}
	}
	if t.NumTips != s.pats.NumTaxa() {
		return fmt.Errorf("service: checkpoint tree has %d tips, alignment %d taxa", t.NumTips, s.pats.NumTaxa())
	}
	if err := s.setupEngine(t, m, ck.Store); err != nil {
		return err
	}
	s.mu.Lock()
	s.lnl, s.round = ck.LnL, ck.Round
	s.revives++
	s.mu.Unlock()
	s.srv.noteRevive()
	s.srv.rebalance()
	return nil
}

// park checkpoints the session and tears the engine down. Runs on the
// loop goroutine; a no-op unless active. The checkpoint carries the
// session config (so a restarted daemon can rebuild the session from
// disk alone) and, for out-of-core sessions, the store manifest that
// lets the revive adopt the parked backing file bit-for-bit.
func (s *Session) park() error {
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return nil
	}
	t, m, lnl, round := s.t, s.m, s.lnl, s.round
	s.mu.Unlock()

	ck := checkpoint.Capture(t, m, lnl, round)
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return err
	}
	ck.Meta = map[string]string{
		"service.session": s.name,
		"service.config":  string(cfgJSON),
	}
	if s.mgr != nil {
		if err := s.mgr.Flush(); err != nil {
			return err
		}
	}
	if s.stack != nil {
		if err := s.stack.Checksum.Sync(); err != nil {
			return err
		}
		man := s.stack.Checksum.Manifest()
		ck.Store = &man
	}
	if err := checkpoint.Save(s.ckptPath, ck); err != nil {
		return err
	}
	s.shutdownEngine()
	s.mu.Lock()
	s.state = stateParked
	s.parks++
	s.mu.Unlock()
	s.srv.notePark()
	s.srv.rebalance()
	return nil
}

// shutdownEngine releases every live resource. Loop goroutine only.
func (s *Session) shutdownEngine() {
	if s.eng != nil {
		s.eng.Close()
	}
	s.closeProvider()
	s.mu.Lock()
	s.eng, s.wd, s.t, s.m = nil, nil, nil, nil
	s.mu.Unlock()
}

// closeProvider tears down manager and store stack (manager first: it
// drains in-flight I/O before the stores go away).
func (s *Session) closeProvider() {
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.stack != nil {
		s.stack.Close()
	}
	s.mu.Lock()
	s.mgr, s.stack = nil, nil
	s.mu.Unlock()
}

// close tears the session down for good. remove also deletes its
// on-disk files. Called from the server with the batcher already
// drained.
func (s *Session) close(remove bool) {
	_ = s.do(func() error {
		s.shutdownEngine()
		s.mu.Lock()
		s.state = stateClosed
		s.mu.Unlock()
		return nil
	})
	close(s.quit)
	if remove {
		os.Remove(s.alnPath)
		os.Remove(s.ckptPath)
		os.Remove(s.vecPath)
		os.Remove(s.vecPath + ".sum")
	}
}

// ---------------------------------------------------------------------
// Jobs.

// execBatch is the batcher's executor: ONE engine pass over the whole
// batch, on the loop goroutine. The first request pays whatever
// traversal its edge needs; later requests reuse every ancestral vector
// that is still valid — bit-identical to fresh passes, just cheaper.
//
// Tracing: the batch runs under one shared engine-pass span, parented
// in the first traced request's trace (a span cannot have parents in
// two traces, so the other traced requests record flow LINKS to it —
// the Chrome export draws the arrows). Around each request's slice of
// the pass, the engine/manager/tier span hooks point at that request's
// span, and the before/after movement of the layer counters becomes the
// request's cost ledger — exact attribution, because this loop is the
// only goroutine advancing them.
func (s *Session) execBatch(batch []*evalJob) {
	err := s.do(func() error {
		if err := s.ensureLive(); err != nil {
			return err
		}
		seq := s.batcher.seq
		var pass *obs.Span
		for _, j := range batch {
			if j.span != nil {
				pass = j.span.StartChild("svc.engine_pass")
				pass.SetAttr("batch", seq)
				pass.SetAttr("size", int64(len(batch)))
				break
			}
		}
		execStart := time.Now()
		for _, j := range batch {
			var before costSnapshot
			if pass != nil {
				s.attachSpans(j.span)
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
				Batch:      seq,
				BatchSize:  len(batch),
				WaitMicros: execStart.Sub(j.enq).Microseconds(),
				Cost:       cost,
			}
			if j.span != nil {
				j.res.TraceID = j.span.TraceID().String()
			}
		}
		if pass != nil {
			s.attachSpans(nil)
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
		s.mu.Lock()
		s.batches++
		s.evals += int64(len(batch))
		s.mu.Unlock()
		s.srv.noteBatch(len(batch), execStart, exec)
		return nil
	})
	if err != nil {
		for _, j := range batch {
			if j.err == nil && j.res == (EvalReply{}) {
				j.err = err
			}
		}
	}
}

// attachSpans points the engine (and, through it, the out-of-core
// manager) and the tiered store at sp for one request's slice of the
// batch. Loop goroutine only; the tier's fetch lanes capture the
// current span per enqueued miss, so the hand-off is race-free.
func (s *Session) attachSpans(sp *obs.Span) {
	if s.eng != nil {
		s.eng.SetSpan(sp)
	}
	if tier := s.tierStore(); tier != nil {
		tier.SetSpan(sp)
	}
}

// costSnapshot captures the monotonic layer counters cost attribution
// differences around one request (loop goroutine: nothing else advances
// them while it holds the engine).
type costSnapshot struct {
	mgr     ooc.Stats
	tier    ooc.TierStats
	hasTier bool
	eng     plf.Stats
}

func (s *Session) costSnapshot() costSnapshot {
	var snap costSnapshot
	if s.mgr != nil {
		snap.mgr = s.mgr.Stats()
	}
	if tier := s.tierStore(); tier != nil {
		snap.tier = tier.Stats()
		snap.hasTier = true
	}
	if s.eng != nil {
		snap.eng = s.eng.Stats
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
		Recomputes:     after.eng.PolicyRecomputes - before.eng.PolicyRecomputes,
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
	if spec.Edge < 0 || spec.Edge >= len(s.t.Edges) {
		return 0, fmt.Errorf("service: edge %d out of range [0,%d)", spec.Edge, len(s.t.Edges))
	}
	edge := s.t.Edges[spec.Edge]
	if spec.Full {
		s.eng.InvalidateAll()
	}
	if spec.Length != nil {
		return s.eng.EvaluateAtLength(edge, *spec.Length)
	}
	lnl, err := s.eng.LogLikelihoodAt(edge)
	if err == nil {
		s.mu.Lock()
		s.lnl = lnl
		s.mu.Unlock()
	}
	return lnl, err
}

// Evaluate submits one request through the coalescing batcher.
func (s *Session) Evaluate(spec EvalSpec) (EvalReply, error) {
	return s.EvaluateTraced(spec, nil)
}

// EvaluateTraced is Evaluate under a server-side request span: the
// batch executor parents its engine/store spans beneath sp and fills
// the reply's trace id and cost ledger.
func (s *Session) EvaluateTraced(spec EvalSpec, sp *obs.Span) (EvalReply, error) {
	return s.EvaluateCtx(context.Background(), spec, sp)
}

// EvaluateCtx is EvaluateTraced under the request's context: when the
// server enforces a request deadline, a batch stuck behind a struggling
// remote tier stops blocking the HTTP handler at that deadline.
func (s *Session) EvaluateCtx(ctx context.Context, spec EvalSpec, sp *obs.Span) (EvalReply, error) {
	s.touch()
	return s.batcher.SubmitCtx(ctx, spec, sp)
}

// tierHealth reports the remote-tier condition for readiness and load
// shedding: whether the session runs a tiered store at all, whether its
// circuit breaker is open (degraded), and the spill journal's depth.
func (s *Session) tierHealth() (hasTier, degraded bool, journalDepth int64) {
	tier := s.tierStore()
	if tier == nil {
		return false, false, 0
	}
	st := tier.Stats()
	return true, st.Degraded, st.JournalDepth
}

// tierStore returns the live tiered store (nil for local sessions or
// while parked).
func (s *Session) tierStore() *ooc.TieredStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stack == nil {
		return nil
	}
	return s.stack.Tier
}

// Newview forces a fresh full engine pass (invalidate + complete
// traversal) and returns the likelihood at the given edge.
func (s *Session) Newview(edgeIdx int) (EvalReply, error) {
	s.touch()
	var rep EvalReply
	err := s.do(func() error {
		if err := s.ensureLive(); err != nil {
			return err
		}
		lnl, err := s.evalOne(EvalSpec{Edge: edgeIdx, Full: true})
		if err != nil {
			return err
		}
		rep = EvalReply{Session: s.name, Edge: edgeIdx, LnL: lnl, LnLBits: FormatLnLBits(lnl), BatchSize: 1}
		return nil
	})
	return rep, err
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
		lnl, err := search.New(s.eng, search.Options{}).SmoothBranches(spec.Passes, spec.Eps)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.lnl = lnl
		s.round++
		newick := tree.WriteNewick(s.t)
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
		nwk = tree.WriteNewick(s.t)
		return nil
	})
	return nwk, err
}

// resizeTo is the governor's enforcement hook: clamp target to the
// session's legal range and resize the live pool. The watchdog is
// rebuilt so its regrow ceiling tracks the new grant instead of the
// stale one. Parked/in-core sessions ignore the call.
func (s *Session) resizeTo(grant int64) {
	_ = s.do(func() error {
		s.mu.Lock()
		active := s.state == stateActive
		vecBytes, n := s.vecBytes, s.nVecs
		s.mu.Unlock()
		if !active || s.mgr == nil || vecBytes == 0 {
			return nil
		}
		eff := grant
		if ov := s.mgr.MemOverheadBytes(); ov > 0 && ov < eff {
			eff -= ov
		}
		target := int(eff / vecBytes)
		if target < ooc.MinSlots {
			target = ooc.MinSlots
		}
		if target > n {
			target = n
		}
		if target == s.mgr.Slots() {
			s.mu.Lock()
			s.grant = grant
			s.mu.Unlock()
			return nil
		}
		if err := s.mgr.Resize(target); err != nil {
			return err
		}
		if s.srv.cfg.MemBudget > 0 {
			wd, err := ooc.NewWatchdog(s.mgr, ooc.WatchdogConfig{
				SoftBudget: s.srv.cfg.MemBudget,
				MaxSlots:   target,
			})
			if err == nil {
				s.mu.Lock()
				s.wd = wd
				s.mu.Unlock()
				s.eng.SetSafePoint(func() error { return wd.Check() })
			}
		}
		s.mu.Lock()
		s.grant = grant
		s.resizes++
		s.mu.Unlock()
		s.srv.noteResize()
		return nil
	})
}
