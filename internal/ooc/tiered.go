package ooc

// TieredStore — the storage substrate for remote-backed runs. It
// composes the three tiers the ROADMAP's cluster story needs:
//
//	RAM slots (ooc.Manager)
//	   │ miss / write-back
//	   ▼
//	local write-back cache  — FileStore in CacheDir; LRU; a dirty
//	   │                      victim is PUT to the remote tier when
//	   │ miss / dirty evict   its slot is reused
//	   ▼
//	remote backend          — any Store, one vector per request
//
// A miss is one GET on the caller's goroutine, straight into the
// caller's buffer: the tier starts no goroutine at open and owns no
// fetch buffer. Concurrency is what the callers bring (the async
// pipeline's I/O workers), and the manager above already joins a demand
// read to an in-flight prefetch of the same vector, so the tier never
// sees two reads of one vector and keeps no dedup layer of its own.
//
// The tier checks nothing it moves: the stack's one ChecksumStore sits
// above it, indexed by vector, and catches a rotted cache slot or a
// corrupt GET alike (OpenStack verifies every stack).
//
// Read-your-writes is the tier's one promise, and only for the run that
// wrote: the cache starts cold, Close discards, and nothing is pushed
// that no reader of this process would fetch. A dirty victim's newest
// bytes sit in one in-memory map (pend) only while its PUT is in
// flight, and reads are served from there. A victim the remote refuses
// goes back into the cache file, dirty, in a slot past CacheVectors:
// the file has a slot for every vector and is sparse, so a slot costs
// no disk until it is used. A later admission evicts it again, and once
// the remote takes PUTs the cache shrinks back to its bound. RAM holds
// the PUTs in flight and nothing else.
import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
)

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// NumVectors and VectorLen fix the store geometry (in float64s,
	// like every other Store).
	NumVectors, VectorLen int
	// CacheDir holds the cache file. Created if missing.
	CacheDir string
	// CacheVectors bounds the cache tier (in vectors, >= 1) while the
	// remote accepts writes. What it refuses stays in the cache file
	// past the bound: at most every vector, as in a local backing file.
	CacheVectors int

	// --- Network fault tolerance (the remote tier treated as an
	// unreliable network service, not a slow disk) ---

	// RemoteDeadline bounds each remote request attempt (0 = 10s). A
	// stalled backend then costs one deadline per attempt instead of a
	// hung engine pass.
	RemoteDeadline time.Duration
	// RemoteRetry re-issues failed remote attempts with full-jitter
	// backoff. It is the run's one retry budget: nothing above the tier
	// re-issues a store call, so a read still refused after it is the
	// engine's to recompute. The zero value disables remote retries.
	RemoteRetry RetryPolicy
	// Breaker configures the per-backend circuit breaker every tier
	// has; zero fields take BreakerConfig's defaults.
	Breaker BreakerConfig
}

// defaultRemoteDeadline is far above one vector's transfer at the
// paper's widths, so only a stalled backend ever reaches it.
const defaultRemoteDeadline = 10 * time.Second

func (c *TieredConfig) fill() error {
	switch {
	case c.RemoteDeadline < 0:
		return fmt.Errorf("ooc: remote deadline %v < 0", c.RemoteDeadline)
	case c.RemoteDeadline == 0:
		c.RemoteDeadline = defaultRemoteDeadline
	}
	if c.NumVectors < 1 || c.VectorLen < 1 {
		return fmt.Errorf("ooc: tiered store geometry %dx%d invalid", c.NumVectors, c.VectorLen)
	}
	if c.CacheVectors < 1 {
		return fmt.Errorf("ooc: tiered store cache capacity %d < 1", c.CacheVectors)
	}
	if c.CacheVectors > c.NumVectors {
		c.CacheVectors = c.NumVectors
	}
	if c.CacheDir == "" {
		return fmt.Errorf("ooc: tiered store needs a cache directory")
	}
	return nil
}

// TierStats is a snapshot of the tier counters.
type TierStats struct {
	// CacheHits and CacheMisses count reads served by / missing the
	// local cache tier (a read served from an in-flight dirty write-back
	// counts as a hit — it never left the machine).
	CacheHits, CacheMisses int64
	// RemoteReads and RemoteWrites count remote REQUESTS;
	// RemoteVectorsRead / RemoteVectorsWritten the vectors they carried
	// (one each).
	RemoteReads, RemoteWrites               int64
	RemoteVectorsRead, RemoteVectorsWritten int64
	// BytesFromCache and BytesFetched split read traffic by the tier
	// that served it; BytesPushed is remote write-back volume.
	BytesFromCache, BytesFetched, BytesPushed int64
	// Evictions counts cache slots recycled; DirtyWritebacks the subset
	// that had to push a dirty vector remote first.
	Evictions, DirtyWritebacks int64

	// --- Network fault tolerance ---

	// RemoteErrors counts failed remote request attempts (timeouts,
	// drops, 5xx); RemoteRetries the re-issues the jittered remote
	// budget paid for them.
	RemoteErrors, RemoteRetries int64
	// BreakerState renders the circuit breaker position ("closed",
	// "open", "half-open").
	// BreakerOpens counts trips, ShortCircuits requests refused
	// locally while open.
	BreakerState  string
	BreakerOpens  int64
	ShortCircuits int64
	// Overflow counts the vectors the cache holds past CacheVectors:
	// dirty victims the remote refused, kept on local disk until a later
	// admission pushes them.
	Overflow int64
	// Degraded reports the breaker not closed: the remote tier is
	// presumed unavailable, and reads it would serve fail until the
	// engine recomputes them.
	Degraded bool
}

// pendWB holds a dirty victim's newest bytes while a PUT of them is in
// flight. Reads of the vector are served from buf. done closes when the
// PUT has ended, so a writer of the vector waits on it and remote writes
// of one vector never overlap.
type pendWB struct {
	vi    int
	buf   []float64
	stamp int64 // the victim's recency, kept if the remote refuses it
	done  chan struct{}
}

// TieredStore implements Store over a local write-back cache backed by
// a remote store. Safe for the Store contract's concurrency (distinct
// vectors; plus concurrent reads of the same vector, each of which
// pays its own remote request).
type TieredStore struct {
	remote Store
	cfg    TieredConfig

	// mu guards the cache tier — placement maps, recency, dirty flags
	// and the cache store's I/O — and pend. Cache I/O is local and fast;
	// remote I/O never runs under mu.
	mu     sync.Mutex
	cache  *FileStore
	slotOf map[int]int // vi -> cache slot
	// Per-slot metadata, CacheVectors long until a refused victim
	// overflows into a slot past the bound.
	viOf  []int   // slot -> vi (-1 = free)
	stamp []int64 // slot -> recency
	dirty []bool  // slot -> modified since last remote push
	rlen  []int   // slot -> record length, what a dirty victim's PUT moves
	now   int64
	free  []int
	// pend holds the dirty victims with a PUT in flight. A vector is
	// never both cached and pending.
	pend map[int]*pendWB
	// firstErr latches the first write-back failure met while admitting
	// a vector whose read succeeded (the reader gets its data);
	// surfaced by Close.
	firstErr error

	// breaker guards every remote request.
	breaker       *Breaker
	retriedRemote atomic.Int64

	// remoteLatObs mirrors per-request remote latency into a registry
	// histogram when instrumented (nil otherwise).
	remoteLatObs atomic.Pointer[func(seconds float64)]
	// span is the request-scoped tracing span tier activity is currently
	// attributed to (nil when untraced). The pipeline's I/O workers read
	// it concurrently with the session loop setting it, hence atomic.
	span atomic.Pointer[obs.Span]

	st struct {
		cacheHits, cacheMisses     atomic.Int64
		remoteReads, remoteWrites  atomic.Int64
		remoteVecsR, remoteVecsW   atomic.Int64
		bytesCache, bytesFetched   atomic.Int64
		bytesPushed                atomic.Int64
		evictions, dirtyWritebacks atomic.Int64
		remoteErrors               atomic.Int64
	}
}

// NewTieredStore opens a tiered store over remote with a fresh, cold
// cache file in CacheDir, sized (sparse) for every vector. The remote
// store is NOT closed by Close — the caller owns it (it may be shared).
func NewTieredStore(remote Store, cfg TieredConfig) (*TieredStore, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("ooc: creating cache dir: %w", err)
	}
	s := &TieredStore{
		remote:  remote,
		cfg:     cfg,
		breaker: NewBreaker(cfg.Breaker),
		slotOf:  make(map[int]int),
		viOf:    make([]int, cfg.CacheVectors),
		stamp:   make([]int64, cfg.CacheVectors),
		dirty:   make([]bool, cfg.CacheVectors),
		rlen:    make([]int, cfg.CacheVectors),
		pend:    make(map[int]*pendWB),
	}
	for slot := cfg.CacheVectors - 1; slot >= 0; slot-- {
		s.viOf[slot] = -1
		s.free = append(s.free, slot)
	}
	var err error
	if s.cache, err = NewFileStore(filepath.Join(cfg.CacheDir, "cache.vec"), cfg.NumVectors, cfg.VectorLen); err != nil {
		return nil, err
	}
	s.breaker.OnTransition(s.noteBreakerTransition)
	return s, nil
}

// Breaker exposes the remote tier's circuit breaker, for
// instrumentation and tests.
func (s *TieredStore) Breaker() *Breaker { return s.breaker }

// Degraded implements Degrader: true while the breaker is anything but
// closed — the remote tier is presumed unavailable, and the service
// layer reports not-ready.
func (s *TieredStore) Degraded() bool {
	return s.breaker.State() != BreakerClosed
}

// noteBreakerTransition records breaker state changes as zero-width
// child spans on the active request span, so a traced evaluate shows
// exactly when the remote tier tripped open / probed / recovered.
func (s *TieredStore) noteBreakerTransition(from, to BreakerState) {
	if sp := s.currentSpan(); sp != nil {
		ev := sp.StartChild("tier.breaker_" + to.String())
		ev.SetAttrStr("from", from.String())
		ev.End()
	}
}

// SetSpan attributes subsequent tier activity (remote fetch/write-back
// spans) to the given request span; nil detaches. Safe to call from
// the session loop while I/O workers are in flight — each remote
// request is parented under the span current when it is issued.
func (s *TieredStore) SetSpan(sp *obs.Span) { s.span.Store(sp) }

// currentSpan returns the active request span (nil when untraced).
func (s *TieredStore) currentSpan() *obs.Span { return s.span.Load() }

// ObserveRemoteLatency registers fn to receive every remote request's
// wall-clock duration in seconds (nil unregisters). Instrumentation
// uses it to feed a latency histogram without touching the hot path
// when nothing listens.
func (s *TieredStore) ObserveRemoteLatency(fn func(seconds float64)) {
	s.remoteLatObs.Store(&fn)
}

// Stats snapshots the tier counters.
func (s *TieredStore) Stats() TierStats {
	bs, state := s.breaker.Stats(), s.breaker.State()
	s.mu.Lock()
	overflow := max(len(s.slotOf)-s.cfg.CacheVectors, 0)
	s.mu.Unlock()
	return TierStats{
		CacheHits:            s.st.cacheHits.Load(),
		CacheMisses:          s.st.cacheMisses.Load(),
		RemoteReads:          s.st.remoteReads.Load(),
		RemoteWrites:         s.st.remoteWrites.Load(),
		RemoteVectorsRead:    s.st.remoteVecsR.Load(),
		RemoteVectorsWritten: s.st.remoteVecsW.Load(),
		BytesFromCache:       s.st.bytesCache.Load(),
		BytesFetched:         s.st.bytesFetched.Load(),
		BytesPushed:          s.st.bytesPushed.Load(),
		Evictions:            s.st.evictions.Load(),
		DirtyWritebacks:      s.st.dirtyWritebacks.Load(),
		RemoteErrors:         s.st.remoteErrors.Load(),
		RemoteRetries:        s.retriedRemote.Load(),
		Overflow:             int64(overflow),
		BreakerState:         state.String(),
		BreakerOpens:         bs.Opens,
		ShortCircuits:        bs.ShortCircuits,
		Degraded:             state != BreakerClosed,
	}
}

// ReadVector implements Store: cache tier and pending write-backs
// first, then one remote GET on the calling goroutine straight into
// dst.
func (s *TieredStore) ReadVector(vi int, dst []float64) error {
	if err := checkRecord("tiered store", "read", s.cfg.NumVectors, s.cfg.VectorLen, vi, len(dst)); err != nil {
		return err
	}
	s.mu.Lock()
	if slot, ok := s.slotOf[vi]; ok {
		s.now++
		s.stamp[slot] = s.now
		err := s.cache.ReadVector(slot, dst)
		s.mu.Unlock()
		if err == nil {
			s.st.cacheHits.Add(1)
			s.st.bytesCache.Add(int64(len(dst)) * 8)
		}
		return err
	}
	if w, ok := s.pend[vi]; ok {
		// The remote copy is stale until a PUT of w.buf lands.
		copy(dst, w.buf)
		s.mu.Unlock()
		s.st.cacheHits.Add(1)
		s.st.bytesCache.Add(int64(len(dst)) * 8)
		return nil
	}
	s.mu.Unlock()

	s.st.cacheMisses.Add(1)
	err := s.tracedCall("tier.remote_get", true, vi, dst)
	s.st.remoteReads.Add(1)
	if err != nil {
		return err
	}
	s.st.remoteVecsR.Add(1)
	s.st.bytesFetched.Add(int64(len(dst)) * 8)
	if aerr := s.admit(vi, dst, false); aerr != nil {
		// The fetch itself succeeded — the reader gets its data; an
		// admission failure is latched for Close like a lost pipeline
		// write-back.
		s.noteErr(aerr)
	}
	return nil
}

// WriteVector implements Store: write-back semantics — the payload
// lands dirty in the cache tier and reaches the remote tier when it is
// evicted.
func (s *TieredStore) WriteVector(vi int, src []float64) error {
	if err := checkRecord("tiered store", "write", s.cfg.NumVectors, s.cfg.VectorLen, vi, len(src)); err != nil {
		return err
	}
	return s.admit(vi, src, true)
}

// Close closes the cache, discarding whatever was never pushed: nothing
// after this process reads it. It issues no remote request. The remote
// store stays open — the caller owns it.
func (s *TieredStore) Close() error {
	s.mu.Lock()
	first := s.firstErr
	s.mu.Unlock()
	if err := s.cache.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// MemOverheadBytes estimates the tier's heap footprint beyond the
// manager's slot pool: placement map and per-slot metadata (vector,
// recency, dirty flag, record length), and the record each PUT in
// flight holds. A read holds none — it lands in the caller's slot — and
// a refused victim waits on disk, so no charge but the PUTs in flight
// depends on VectorLen. Sizing a pool from a byte budget subtracts it
// first.
func (s *TieredStore) MemOverheadBytes() int64 {
	const mapEntry = 48 // rough per-entry cost of a map[int]int
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.slotOf))*mapEntry + int64(len(s.viOf))*(8+8+1+8) // viOf, stamp, dirty, rlen
	for _, w := range s.pend {
		n += mapEntry + int64(len(w.buf))*8
	}
	return n
}

// tracedCall is remoteCall under a child of the active request span
// (none when untraced), so a traced request shows each round trip it
// paid for, with the vector as attributes.
func (s *TieredStore) tracedCall(name string, read bool, vi int, buf []float64) error {
	ctx := context.Background()
	var span *obs.Span
	if sp := s.currentSpan(); sp != nil {
		span = sp.StartChild(name)
		span.SetAttr("vi", int64(vi))
		span.SetAttr("bytes", int64(len(buf))*8)
		ctx = obs.ContextWithSpan(ctx, span)
	}
	err := s.remoteCall(ctx, read, vi, buf)
	span.End()
	return err
}

// remoteObserved charges one remote round trip to the instrumented
// latency histogram, when one is attached.
func (s *TieredStore) remoteObserved(d time.Duration) {
	if fn := s.remoteLatObs.Load(); fn != nil && *fn != nil {
		(*fn)(d.Seconds())
	}
}

// remoteCall is the single guarded gateway for remote I/O of one
// vector: circuit breaker admission, a per-attempt deadline and the
// jittered remote retry budget. buf is read for writes and filled for
// reads.
func (s *TieredStore) remoteCall(ctx context.Context, read bool, vi int, buf []float64) error {
	opName := "write"
	if read {
		opName = "read"
	}
	op := func() error {
		if !s.breaker.Allow() {
			return fmt.Errorf("ooc: remote %s %d: %w", opName, vi, ErrCircuitOpen)
		}
		actx, cancel := context.WithTimeout(ctx, s.cfg.RemoteDeadline)
		start := time.Now()
		var err error
		if read {
			err = ReadRangeOf(actx, s.remote, s.cfg.VectorLen, vi, 1, buf)
		} else {
			err = WriteRangeOf(actx, s.remote, s.cfg.VectorLen, vi, 1, buf)
		}
		cancel()
		s.remoteObserved(time.Since(start))
		switch {
		case err == nil:
			s.breaker.Success()
		case ctx.Err() != nil:
			// The CALLER's context ended — says nothing about the
			// backend; release the probe slot without judging it.
			s.breaker.Cancelled()
		default:
			s.breaker.Failure()
		}
		if err != nil {
			s.st.remoteErrors.Add(1)
		}
		return err
	}
	return s.cfg.RemoteRetry.runCtx(ctx, &s.retriedRemote, op)
}

// ProbeRemote issues one guarded read of a one-word record and discards
// it. A busy workload's next remote read or write-back is the breaker's
// half-open probe; an idle one sends none, so health loops call this to
// notice recovery without traffic. No-op when the breaker is closed.
func (s *TieredStore) ProbeRemote(ctx context.Context) error {
	if !s.Degraded() {
		return nil
	}
	return s.remoteCall(ctx, true, 0, make([]float64, 1))
}

func (s *TieredStore) noteErr(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// admit installs data as vector vi in the cache tier. At the bound it
// evicts the LRU vector first, and a second one while refused victims
// hold the cache past the bound, so the cache shrinks back once the
// remote takes PUTs again. A dirty victim is copied into pend under the
// lock and pushed after it is released — readers consult pend, so the
// slot's new content never hides the victim's newest bytes.
func (s *TieredStore) admit(vi int, data []float64, markDirty bool) error {
	s.mu.Lock()
	if markDirty {
		// This write supersedes the bytes of a PUT of vi in flight: wait
		// it out, so remote writes of one vector stay ordered.
		for w := s.pend[vi]; w != nil; w = s.pend[vi] {
			s.mu.Unlock()
			<-w.done
			s.mu.Lock()
		}
	}
	if slot, ok := s.slotOf[vi]; ok {
		err := s.cache.WriteVector(slot, data)
		if err == nil {
			s.now++
			s.stamp[slot] = s.now
			s.rlen[slot] = len(data)
			if markDirty {
				s.dirty[slot] = true
			}
		}
		s.mu.Unlock()
		return err
	}
	var evicted []*pendWB
	var err error
	for n := 0; n < 2 && err == nil && len(s.slotOf) >= s.cfg.CacheVectors; n++ {
		var w *pendWB
		if w, err = s.evictLRU(); w != nil {
			evicted = append(evicted, w)
		}
	}
	if err == nil {
		s.now++
		err = s.place(vi, data, markDirty, s.now)
	}
	s.mu.Unlock()

	for _, w := range evicted {
		if werr := s.writeBack(w); err == nil {
			err = werr
		}
	}
	return err
}

// evictLRU frees the least recently used slot and returns the pending
// write-back of its vector, nil when it was clean (caller holds mu).
func (s *TieredStore) evictLRU() (*pendWB, error) {
	victim, oldest := -1, int64(1<<62)
	for sl, st := range s.stamp {
		if s.viOf[sl] >= 0 && st < oldest {
			victim, oldest = sl, st
		}
	}
	vvi := s.viOf[victim]
	var w *pendWB
	if s.dirty[victim] {
		w = &pendWB{vi: vvi, buf: make([]float64, s.rlen[victim]), stamp: oldest, done: make(chan struct{})}
		if err := s.cache.ReadVector(victim, w.buf); err != nil {
			return nil, fmt.Errorf("ooc: evicting dirty vector %d: %w", vvi, err)
		}
		s.pend[vvi] = w
		s.st.dirtyWritebacks.Add(1)
	}
	delete(s.slotOf, vvi)
	s.viOf[victim], s.dirty[victim] = -1, false
	s.free = append(s.free, victim)
	s.st.evictions.Add(1)
	return w, nil
}

// place writes data into a free slot as vector vi (caller holds mu).
// The per-slot metadata grows by one slot when none is free; the cache
// file has a slot for every vector and vi holds none yet, so one is
// always there to take.
func (s *TieredStore) place(vi int, data []float64, dirty bool, stamp int64) error {
	var slot int
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = len(s.viOf)
		s.viOf = append(s.viOf, -1)
		s.stamp = append(s.stamp, 0)
		s.dirty = append(s.dirty, false)
		s.rlen = append(s.rlen, 0)
	}
	if err := s.cache.WriteVector(slot, data); err != nil {
		s.free = append(s.free, slot)
		return err
	}
	s.viOf[slot], s.slotOf[vi] = vi, slot
	s.stamp[slot], s.dirty[slot], s.rlen[slot] = stamp, dirty, len(data)
	return nil
}

// writeBack PUTs an evicted dirty victim to the remote tier. A victim
// the remote refuses goes back into the cache, dirty and as old as it
// was, in a free slot past the bound; an error is returned only when
// the cache cannot take it back.
func (s *TieredStore) writeBack(w *pendWB) error {
	err := s.tracedCall("tier.remote_put", false, w.vi, w.buf)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pend, w.vi)
	close(w.done)
	if err == nil {
		s.st.remoteWrites.Add(1)
		s.st.remoteVecsW.Add(1)
		s.st.bytesPushed.Add(int64(len(w.buf)) * 8)
		return nil
	}
	if err := s.place(w.vi, w.buf, true, w.stamp); err != nil {
		return fmt.Errorf("ooc: keeping vector %d the remote refused: %w", w.vi, err)
	}
	return nil
}
