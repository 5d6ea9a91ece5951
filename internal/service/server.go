package service

// Server — the multi-tenant daemon around the PLF engine. One process
// hosts many named sessions; the server's job is governance: admitting
// sessions whose memory floors fit under the global budget, squeezing
// the out-of-core slot pools proportionally when tenants pile up,
// parking idle sessions to disk (exact-resume checkpoints) and reviving
// them on the next request, and exposing the whole ledger on the /debug
// endpoint the observability PR built.
//
// The memory model, in the paper's terms: each session is one PLF
// instance with n ancestral vectors of w bytes. An in-core session
// pins n·w bytes for as long as it is active — its floor IS its need.
// An out-of-core session needs only m ≥ 3 slots live (the newview
// recurrence's working set), so its floor is 3·w and everything above
// that is elastic. The governor hands each active OOC session a grant
// share = quota·avail/Σquota of whatever budget the in-core tenants
// left over, enforced through ooc.Manager.Resize between operations.
// The budget counts vector bytes, not the process heap, so the grant is
// a session's one memory controller.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
)

// ServerConfig sizes the daemon.
type ServerConfig struct {
	// DataDir holds per-session files: <name>.aln, <name>.ckpt,
	// <name>.vec. Parked sessions found here at startup are adopted
	// and revived lazily on their next request.
	DataDir string
	// MemBudget is the global ancestral-vector budget in bytes across
	// ALL active sessions (0 = unlimited). Admission rejects sessions
	// whose floor does not fit; the governor squeezes elastic OOC pools
	// to keep the sum of grants under it.
	MemBudget int64
	// IdleTimeout parks sessions with no request for this long
	// (0 = never; otherwise at least 1 ms). Parking frees their RAM;
	// the next request revives them from the checkpoint.
	IdleTimeout time.Duration
	// StoreURL, when set (remote://host:port), puts every out-of-core
	// session's vectors on that object store behind a local write-back
	// cache in DataDir (<name>.cache/). Each session uses the object
	// <name>.vec.
	StoreURL string
	// CacheBytes bounds each session's local cache tier while the
	// remote accepts writes (0 = size the cache to hold every vector);
	// what the remote refuses stays in the cache file past it.
	CacheBytes int64
	// RemoteLanes is accepted and ignored: the tier has no lanes (a miss
	// is one GET on the caller's goroutine), but bench/serve.go, which
	// the PRs it judges do not edit, still sets it.
	RemoteLanes int
	// RemoteDeadline bounds each remote store request attempt; retries
	// get a fresh deadline (0 = 10s). Only meaningful with StoreURL.
	RemoteDeadline time.Duration
	// RequestTimeout bounds one /v1 request end-to-end; expiry maps to
	// 503 + Retry-After (0 = no deadline).
	RequestTimeout time.Duration
}

// minIdleTimeout is the shortest IdleTimeout NewServer accepts. The
// reaper looks for idle sessions every IdleTimeout/4.
const minIdleTimeout = time.Millisecond

// admissionError is a quota rejection — mapped to 503, because the
// condition clears when other tenants park or shrink.
type admissionError struct{ msg string }

func (e *admissionError) Error() string { return e.msg }

// IsAdmissionError reports whether err is a governor rejection.
func IsAdmissionError(err error) bool {
	_, ok := err.(*admissionError)
	return ok
}

// Server hosts the sessions and the governor.
type Server struct {
	cfg   ServerConfig
	reg   *obs.Registry
	spans *obs.SpanCollector

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	// global admission/throughput ledger (the /debug svc.* section)
	mxAdmitted, mxRejected   *obs.Counter
	mxParks, mxRevives       *obs.Counter
	mxResizes, mxBatches     *obs.Counter
	mxEvals                  *obs.Counter
	mxHTTPReqs, mxHTTPErrs   *obs.Counter
	mxSessions, mxActive     *obs.Gauge
	mxGranted                *obs.Gauge
	mxBatchSize, mxBatchExec *obs.Histogram
	mxReqSeconds             *obs.Histogram

	reaperQuit chan struct{}
	reaperDone chan struct{}
}

// NewServer builds the daemon: creates DataDir, wires the registry and
// span collector, and adopts any parked sessions a previous daemon left there.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: DataDir is required")
	}
	if cfg.IdleTimeout > 0 && cfg.IdleTimeout < minIdleTimeout {
		return nil, fmt.Errorf("service: idle timeout %v is below %v", cfg.IdleTimeout, minIdleTimeout)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.StoreURL != "" {
		// Fail at startup, not at the first session create: the
		// endpoint must yield a valid object URL for any session name.
		if _, err := ooc.ParseRemoteURL(sessionObjectURL(cfg.StoreURL, "probe")); err != nil {
			return nil, fmt.Errorf("service: invalid store URL %q (want remote://host:port or remote://host:port/namespace): %w", cfg.StoreURL, err)
		}
	}
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		spans:    obs.NewSpanCollector(256),
		sessions: make(map[string]*Session),
	}
	s.mxAdmitted = s.reg.Counter("svc.admitted")
	s.mxRejected = s.reg.Counter("svc.rejected")
	s.mxParks = s.reg.Counter("svc.parks")
	s.mxRevives = s.reg.Counter("svc.revives")
	s.mxResizes = s.reg.Counter("svc.resizes")
	s.mxBatches = s.reg.Counter("svc.batches")
	s.mxEvals = s.reg.Counter("svc.evals")
	s.mxSessions = s.reg.Gauge("svc.sessions")
	s.mxActive = s.reg.Gauge("svc.active")
	s.mxGranted = s.reg.Gauge("svc.granted_bytes")
	s.mxBatchSize = s.reg.Histogram("svc.batch.size", []float64{1, 2, 4, 8, 16, 32, 64})
	s.mxBatchExec = s.reg.Histogram("svc.batch.exec_seconds", nil)
	s.mxHTTPReqs = s.reg.Counter("svc.http.requests")
	s.mxHTTPErrs = s.reg.Counter("svc.http.errors")
	s.mxReqSeconds = s.reg.Histogram("svc.request_seconds",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
	s.reg.SetInfo("svc.mem_budget", fmt.Sprintf("%d", cfg.MemBudget))
	s.reg.AddPublisher("svc.", s.publish)
	obs.RegisterSpanMetrics(s.reg, s.spans)

	if err := s.adoptParked(); err != nil {
		return nil, err
	}
	s.reaperQuit = make(chan struct{})
	s.reaperDone = make(chan struct{})
	go s.reaper()
	return s, nil
}

// Registry exposes the server's metrics registry (tests and the CLI's
// shutdown report read it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Spans exposes the server's span collector (tests and the traced CI
// smoke inspect recorded traces through it).
func (s *Server) Spans() *obs.SpanCollector { return s.spans }

// publish mirrors the live tenancy picture into the gauges.
func (s *Server) publish() {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		list = append(list, ses)
	}
	s.mu.Unlock()
	var active int64
	var granted int64
	for _, ses := range list {
		a, _, _, _, _, _ := ses.memShape()
		if a {
			active++
			ses.mu.Lock()
			granted += ses.grant
			ses.mu.Unlock()
		}
	}
	s.mxSessions.Set(int64(len(list)))
	s.mxActive.Set(active)
	s.mxGranted.Set(granted)
}

// adoptParked scans DataDir for checkpoints written by a previous
// daemon and registers each as a parked session. Nothing is loaded into
// RAM here — the first request pays the revive.
func (s *Server) adoptParked() error {
	ents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".ckpt") {
			continue
		}
		path := filepath.Join(s.cfg.DataDir, ent.Name())
		ck, err := checkpoint.Load(path)
		if err != nil {
			continue // foreign or torn file: not ours to adopt
		}
		cfgJSON, ok := ck.Meta["service.config"]
		if !ok {
			continue // a CLI checkpoint, not a service session
		}
		var cfg SessionConfig
		if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
			continue
		}
		if !validName(cfg.Name) || cfg.Name+".ckpt" != ent.Name() {
			continue
		}
		s.sessions[cfg.Name] = newSession(s, cfg)
	}
	return nil
}

// ---------------------------------------------------------------------
// Governance.

// shares computes the grant for every active session under MemBudget:
// in-core sessions take their full need off the top (their floor IS
// their need); OOC sessions split what is left in proportion to their
// quotas, clamped below by the MinSlots floor. cand, when not nil, is a
// session about to activate, which memShape does not report yet: it
// counts as active with the shape sz. Callers hold no locks.
func (s *Server) shares(all []*Session, cand *Session, sz analysis.Sizing) map[*Session]int64 {
	shape := func(ses *Session) (active, outOfCore bool, quota, need, vecBytes int64) {
		if ses == cand {
			return true, sz.OutOfCore, sz.Quota, sz.Need, sz.VecBytes
		}
		active, outOfCore, quota, need, vecBytes, _ = ses.memShape()
		return
	}
	grants := make(map[*Session]int64, len(all))
	if s.cfg.MemBudget <= 0 {
		for _, ses := range all {
			_, _, quota, need, _ := shape(ses)
			if quota > need {
				quota = need
			}
			grants[ses] = quota
		}
		return grants
	}
	avail := s.cfg.MemBudget
	var oocs []*Session
	var sumQ int64
	for _, ses := range all {
		active, outOfCore, quota, need, _ := shape(ses)
		if !active {
			continue
		}
		if !outOfCore {
			grants[ses] = need
			avail -= need
			continue
		}
		oocs = append(oocs, ses)
		sumQ += quota
	}
	if avail < 0 {
		avail = 0
	}
	for _, ses := range oocs {
		_, _, quota, need, vecBytes := shape(ses)
		grant := quota
		if sumQ > avail {
			grant = quota * avail / sumQ // proportional squeeze
		}
		floor := int64(ooc.MinSlots) * vecBytes
		if grant < floor {
			grant = floor
		}
		if grant > need {
			grant = need
		}
		grants[ses] = grant
	}
	return grants
}

// admit is the admission check for a session about to activate (create
// or revive): its FLOOR must fit beside the floors of every currently
// active session. Returns the initial grant. Called from the
// candidate's loop goroutine.
func (s *Server) admit(cand *Session, sz analysis.Sizing) (int64, error) {
	if s.cfg.MemBudget <= 0 {
		s.mxAdmitted.Inc()
		return sz.Quota, nil
	}
	floor := sz.Quota // in-core: all or nothing
	if sz.OutOfCore {
		floor = int64(ooc.MinSlots) * sz.VecBytes
	}
	s.mu.Lock()
	others := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		if ses != cand {
			others = append(others, ses)
		}
	}
	s.mu.Unlock()
	var used int64
	for _, ses := range others {
		active, oc, _, need, vb, _ := ses.memShape()
		if !active {
			continue
		}
		if oc {
			used += int64(ooc.MinSlots) * vb
		} else {
			used += need
		}
	}
	if used+floor > s.cfg.MemBudget {
		s.mxRejected.Inc()
		return 0, &admissionError{fmt.Sprintf(
			"service: memory budget exhausted: floor %d B + %d B in active floors > budget %d B (park or delete a session)",
			floor, used, s.cfg.MemBudget)}
	}
	s.mxAdmitted.Inc()
	// Initial grant: the candidate's proportional share given everyone
	// active. The squeeze of the OTHERS happens in the rebalance the
	// caller triggers once it is live.
	return s.shares(append(others, cand), cand, sz)[cand], nil
}

// rebalance recomputes every active session's grant and dispatches the
// resizes. Asynchronous by design: it is called from session loop jobs
// (park, revive), and resizeTo goes through the target session's loop —
// a synchronous call from loop A to loop A would deadlock.
func (s *Server) rebalance() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	all := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		all = append(all, ses)
	}
	s.mu.Unlock()
	grants := s.shares(all, nil, analysis.Sizing{})
	for ses, grant := range grants {
		active, outOfCore, _, _, _, _ := ses.memShape()
		if !active || !outOfCore {
			continue
		}
		go ses.resizeTo(grant)
	}
}

func (s *Server) notePark()   { s.mxParks.Inc() }
func (s *Server) noteRevive() { s.mxRevives.Inc() }
func (s *Server) noteResize() { s.mxResizes.Inc() }

func (s *Server) noteBatch(size int, start time.Time, execMicros int64) {
	s.mxBatches.Inc()
	s.mxEvals.Add(int64(size))
	s.mxBatchSize.Observe(float64(size))
	s.mxBatchExec.Observe(float64(execMicros) / 1e6)
}

// reaper parks sessions idle past IdleTimeout.
func (s *Server) reaper() {
	defer close(s.reaperDone)
	if s.cfg.IdleTimeout <= 0 {
		<-s.reaperQuit
		return
	}
	tick := time.NewTicker(s.cfg.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout)
			s.mu.Lock()
			var idle []*Session
			for _, ses := range s.sessions {
				ses.mu.Lock()
				if ses.state == stateActive && ses.lastUsed.Before(cutoff) {
					idle = append(idle, ses)
				}
				ses.mu.Unlock()
			}
			s.mu.Unlock()
			for _, ses := range idle {
				_ = ses.do(ses.park)
			}
		case <-s.reaperQuit:
			return
		}
	}
}

// ---------------------------------------------------------------------
// Session registry operations.

// CreateSession validates, registers and builds a session.
func (s *Server) CreateSession(cfg SessionConfig) (*Session, error) {
	cfg.Fill()
	if !validName(cfg.Name) {
		return nil, fmt.Errorf("service: invalid session name %q (letters, digits, '_'; max 64)", cfg.Name)
	}
	if err := cfg.Check(); err != nil {
		return nil, fmt.Errorf("service: session %q: %w", cfg.Name, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if _, dup := s.sessions[cfg.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: session %q already exists", cfg.Name)
	}
	ses := newSession(s, cfg)
	s.sessions[cfg.Name] = ses
	s.mu.Unlock()

	if err := ses.do(ses.build); err != nil {
		s.mu.Lock()
		delete(s.sessions, cfg.Name)
		s.mu.Unlock()
		ses.close(true)
		s.reg.Remove(metricsPrefix(cfg.Name))
		return nil, err
	}
	s.rebalance()
	return ses, nil
}

// Session looks a session up by name.
func (s *Server) Session(name string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ses, ok := s.sessions[name]
	return ses, ok
}

// Sessions snapshots every session's info document, sorted by name.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		list = append(list, ses)
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(list))
	for _, ses := range list {
		infos = append(infos, ses.infoSnapshot())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// DeleteSession tears a session down and removes its files.
func (s *Server) DeleteSession(name string) error {
	s.mu.Lock()
	ses, ok := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: no session %q", name)
	}
	ses.close(true)
	s.reg.Remove(metricsPrefix(name))
	s.rebalance()
	return nil
}

// ParkSession checkpoints a session and frees its RAM on demand.
func (s *Server) ParkSession(name string) error {
	ses, ok := s.Session(name)
	if !ok {
		return fmt.Errorf("service: no session %q", name)
	}
	return ses.do(ses.park)
}

// Close parks and closes every session (so all of them are resumable
// from disk, and none revives before the process exits) and stops the
// daemon. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	list := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		list = append(list, ses)
	}
	s.mu.Unlock()
	close(s.reaperQuit)
	<-s.reaperDone
	var firstErr error
	for _, ses := range list {
		if err := ses.close(false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------
// HTTP surface.

// Handler mounts the service routes onto the observability mux, so one
// listener serves /v1/* and /debug/*. Every /v1 route runs under the
// traced middleware: always metered (the exported SLIs), and span-recorded
// when the request carries a W3C traceparent header.
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.reg, s.spans)
	// /healthz is pure liveness: the process is up and serving. /readyz
	// additionally asks whether the daemon can serve at full speed —
	// a session whose remote tier is circuit-open still ANSWERS
	// (the engine recomputes what it cannot read, refused write-backs
	// stay in the cache file), but a load balancer should prefer a
	// replica whose remote tier is healthy.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	v1 := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.traced(pattern, h))
	}
	v1("POST /v1/sessions", s.handleCreate)
	v1("GET /v1/sessions", s.handleList)
	v1("GET /v1/sessions/{name}", s.handleInfo)
	v1("DELETE /v1/sessions/{name}", s.handleDelete)
	v1("POST /v1/sessions/{name}/evaluate", s.handleEvaluate)
	v1("POST /v1/sessions/{name}/optimize", s.handleOptimize)
	v1("POST /v1/sessions/{name}/park", s.handlePark)
	v1("GET /v1/sessions/{name}/tree", s.handleTree)
	return mux
}

// traced wraps one /v1 route. Every request lands in the svc.http.*
// counters and the request-latency histogram — the exported SLIs — and a
// request carrying a traceparent header additionally gets a server-side
// root span, its trace id echoed in the X-OOC-Trace response header,
// under which the handler chain (session loop, engine, manager, tiered
// store, remote client) parents everything it records. An untraced
// request pays one header lookup.
func (s *Server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		var sp *obs.Span
		if tp := r.Header.Get("traceparent"); tp != "" {
			sp = s.spans.StartRemoteChild("http "+name, tp)
			sp.SetAttrStr("path", r.URL.Path)
			w.Header().Set("X-OOC-Trace", sp.TraceID().String())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.mxHTTPReqs.Inc()
		if sw.status >= 500 {
			s.mxHTTPErrs.Inc()
		}
		s.mxReqSeconds.Observe(time.Since(start).Seconds())
		if sp != nil {
			sp.SetAttr("status", int64(sw.status))
			sp.End()
		}
	}
}

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfter is the Retry-After hint, in seconds, on every 503.
const retryAfter = "1"

// writeErr maps service errors onto HTTP statuses: admission → 503
// (retryable once a tenant parks), remote-tier failures — circuit
// open, transient I/O, a request deadline that expired while the tier
// was struggling — → 503 + Retry-After (the condition clears when the
// breaker recloses), closed → 409, the rest → 400.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case IsAdmissionError(err), ooc.IsCircuitOpen(err), ooc.IsTransient(err),
		errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter)
	case err == ErrSessionClosed:
		status = http.StatusConflict
	}
	writeJSON(w, status, errorReply{Error: err.Error()})
}

// handleCreate decodes strictly: a misspelt or retired field would
// otherwise leave its setting silently at the default (a misspelt
// mem_limit is an in-RAM run), so it is a 400 naming the field. The
// other request decoders, and adoptParked's, stay lenient.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		s.writeErr(w, fmt.Errorf("service: bad session config: %w", err))
		return
	}
	ses, err := s.CreateSession(cfg)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, ses.infoSnapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	name := r.PathValue("name")
	ses, ok := s.Session(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("no session %q", name)})
		return nil, false
	}
	return ses, true
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if ses, ok := s.session(w, r); ok {
		writeJSON(w, http.StatusOK, ses.infoSnapshot())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("name")); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	ses, ok := s.session(w, r)
	if !ok {
		return
	}
	var spec EvalSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.writeErr(w, fmt.Errorf("service: bad evaluate spec: %w", err))
		return
	}
	rep, err := ses.EvaluateCtx(r.Context(), spec, obs.SpanFromContext(r.Context()))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	ses, ok := s.session(w, r)
	if !ok {
		return
	}
	var spec OptimizeSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.writeErr(w, fmt.Errorf("service: bad optimize spec: %w", err))
		return
	}
	rep, err := ses.Optimize(spec)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handlePark(w http.ResponseWriter, r *http.Request) {
	ses, ok := s.session(w, r)
	if !ok {
		return
	}
	if err := ses.do(ses.park); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ses.infoSnapshot())
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	ses, ok := s.session(w, r)
	if !ok {
		return
	}
	nwk, err := ses.Tree()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session": ses.name, "newick": nwk})
}

// ---------------------------------------------------------------------
// Readiness.

// readyReply is the /readyz document.
type readyReply struct {
	Ready bool `json:"ready"`
	// Degraded lists sessions whose remote tier is circuit-open. They
	// still answer bit-identically (cache + recompute), slower, and what
	// the remote refuses waits in the session's cache file.
	Degraded []string `json:"degraded,omitempty"`
}

// handleReady answers /readyz: 200 while every session's remote tier is
// healthy (or local), 503 + Retry-After while any is degraded. Each
// poll also nudges the degraded tiers with a bounded probe: a busy
// session's next remote read is its breaker's half-open probe, but an
// idle one sends none and would stay not-ready after the remote heals.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		list = append(list, ses)
	}
	s.mu.Unlock()
	var rep readyReply
	for _, ses := range list {
		tier := ses.tierStore()
		if tier == nil || !tier.Degraded() {
			continue
		}
		rep.Degraded = append(rep.Degraded, ses.name)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = tier.ProbeRemote(ctx)
		}()
	}
	sort.Strings(rep.Degraded)
	rep.Ready = len(rep.Degraded) == 0
	if !rep.Ready {
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, rep)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
