package ooc

// TieredStore — the storage substrate for remote-backed runs. It
// composes the three tiers the ROADMAP's cluster story needs:
//
//	RAM slots (ooc.Manager)
//	   │ miss / write-back
//	   ▼
//	local write-back cache  — bounded, CRC-32C-checked FileStore in
//	   │                      CacheDir; LRU; a dirty victim is PUT to
//	   │ miss / dirty evict   the remote tier BEFORE its slot is reused
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
// Read-your-writes is the tier's one promise, and only for the run that
// wrote: the cache starts cold, Close discards, and nothing is pushed
// that no reader of this process would fetch. A dirty victim's newest
// bytes sit in one in-memory map (pend) from the moment its slot is
// promised away until a PUT of them lands — the eviction's own PUT, or,
// when the remote refused it, a background drain after the next
// successful remote call. Reads are served from there; the watchdog is
// charged for it.
import (
	"context"
	"errors"
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
	// CacheVectors bounds the cache tier (in vectors, >= 1).
	CacheVectors int

	// --- Network fault tolerance (the remote tier treated as an
	// unreliable network service, not a slow disk) ---

	// RemoteDeadline bounds each remote request attempt (0 = none). A
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

func (c *TieredConfig) fill() error {
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
	// SpillHits counts reads served from spilled victims (dirty
	// evictions the remote refused, held in memory); SpillAppends the
	// victims spilled; SpillReplayed those a drain later PUT; SpillDepth
	// the victims currently held.
	SpillHits     int64
	SpillAppends  int64
	SpillReplayed int64
	SpillDepth    int64
	// Degraded reports the breaker not closed: the remote tier is
	// presumed unavailable, and reads it would serve fail until the
	// engine recomputes them.
	Degraded bool
}

// pendWB holds a dirty victim's newest bytes until a PUT of them lands
// on the remote tier. Reads of the vector are served from buf. done is
// open exactly while a PUT of buf is in flight — the eviction's own or
// a drain's, which re-arms it — so a writer of the vector waits on it
// and remote writes of one vector never overlap.
type pendWB struct {
	vi   int
	buf  []float64
	done chan struct{}
	// spilled is set once the eviction's own PUT failed; the entry then
	// waits for a drain.
	spilled bool
}

// pushing reports whether a PUT of w.buf is in flight (caller holds mu).
func (w *pendWB) pushing() bool {
	select {
	case <-w.done:
		return false
	default:
		return true
	}
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
	cache  *ChecksumStore
	slotOf map[int]int // vi -> cache slot
	viOf   []int       // slot -> vi (-1 = free)
	stamp  []int64     // slot -> recency
	dirty  []bool      // slot -> modified since last remote push
	now    int64
	free   []int
	// pend holds the vectors whose newest bytes are not yet on the
	// remote tier: dirty victims with a PUT in flight, and spilled ones
	// the remote refused. A vector is never both cached and pending.
	pend map[int]*pendWB
	// firstErr latches the first write-back failure met while admitting
	// a vector whose read succeeded (the reader gets its data);
	// surfaced by Close.
	firstErr error

	// breaker guards every remote request.
	breaker       *Breaker
	retriedRemote atomic.Int64
	drainBusy     atomic.Bool
	closing       atomic.Bool
	bg            sync.WaitGroup

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
		spillHits, spillAppends    atomic.Int64
		spillReplayed, spillDepth  atomic.Int64
	}
}

// NewTieredStore opens a tiered store over remote with a fresh, cold
// cache file in CacheDir. The remote store is NOT closed by Close — the
// caller owns it (it may be shared).
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
		pend:    make(map[int]*pendWB),
	}
	for slot := cfg.CacheVectors - 1; slot >= 0; slot-- {
		s.viOf[slot] = -1
		s.free = append(s.free, slot)
	}
	cache, err := OpenStack(StackSpec{
		TieredConfig: TieredConfig{NumVectors: cfg.CacheVectors, VectorLen: cfg.VectorLen},
		Path:         filepath.Join(cfg.CacheDir, "cache.vec"),
		Verify:       true,
	})
	if err != nil {
		return nil, err
	}
	s.cache = cache.Checksum
	s.breaker.OnTransition(s.noteBreakerTransition)
	return s, nil
}

// Breaker exposes the remote tier's circuit breaker, for
// instrumentation and tests.
func (s *TieredStore) Breaker() *Breaker { return s.breaker }

// Degraded implements Degrader: true while the breaker is anything but
// closed — the remote tier is presumed unavailable, and the service
// layer reports not-ready and may shed load.
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
		SpillHits:            s.st.spillHits.Load(),
		SpillAppends:         s.st.spillAppends.Load(),
		SpillReplayed:        s.st.spillReplayed.Load(),
		SpillDepth:           s.st.spillDepth.Load(),
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
		err := s.cacheRead(slot, vi, dst)
		wasDirty := s.dirty[slot]
		if err != nil && IsCorruption(err) && !wasDirty {
			// Clean cached copy rotted locally: drop it and refetch the
			// authoritative remote copy instead of failing the read.
			delete(s.slotOf, vi)
			s.viOf[slot] = -1
			s.free = append(s.free, slot)
		} else {
			s.mu.Unlock()
			if err == nil {
				s.st.cacheHits.Add(1)
				s.st.bytesCache.Add(int64(len(dst)) * 8)
			}
			return err
		}
	}
	if w, ok := s.pend[vi]; ok {
		// The remote copy is stale until a PUT of w.buf lands.
		copy(dst, w.buf)
		spilled := w.spilled
		s.mu.Unlock()
		if spilled {
			s.st.spillHits.Add(1)
		} else {
			s.st.cacheHits.Add(1)
		}
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

// Close waits out a running background drain and closes the cache,
// discarding whatever was never pushed: nothing after this process
// reads it. It issues no remote request. The remote store stays open —
// the caller owns it.
func (s *TieredStore) Close() error {
	s.closing.Store(true)
	s.bg.Wait()
	s.mu.Lock()
	first := s.firstErr
	s.mu.Unlock()
	if err := s.cache.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// MemOverheadBytes estimates the tier's heap footprint beyond the
// manager's slot pool: placement map and per-slot metadata, and the
// record each pending write-back holds — in flight or spilled. A read
// holds none — it lands in the caller's slot — so an idle tier's charge
// does not depend on VectorLen. Watchdog and Resize subtract it from
// the memory budget.
func (s *TieredStore) MemOverheadBytes() int64 {
	const mapEntry = 48 // rough per-entry cost of a map[int]int
	s.mu.Lock()
	n := int64(len(s.slotOf)) * mapEntry
	for _, w := range s.pend {
		n += mapEntry + int64(len(w.buf))*8
	}
	s.mu.Unlock()
	return n + int64(s.cfg.CacheVectors)*(8+8+1) // viOf, stamp, dirty
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
		actx := ctx
		cancel := context.CancelFunc(nil)
		if s.cfg.RemoteDeadline > 0 {
			actx, cancel = context.WithTimeout(ctx, s.cfg.RemoteDeadline)
		}
		start := time.Now()
		var err error
		if read {
			err = ReadRangeOf(actx, s.remote, s.cfg.VectorLen, vi, 1, buf)
		} else {
			err = WriteRangeOf(actx, s.remote, s.cfg.VectorLen, vi, 1, buf)
		}
		if cancel != nil {
			cancel()
		}
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
	err := s.cfg.RemoteRetry.runCtx(ctx, &s.retriedRemote, op)
	if err == nil {
		s.maybeDrain()
	}
	return err
}

// push PUTs a pending write-back's bytes to the remote tier.
func (s *TieredStore) push(name string, w *pendWB) error {
	err := s.tracedCall(name, false, w.vi, w.buf)
	if err == nil {
		s.st.remoteWrites.Add(1)
		s.st.remoteVecsW.Add(1)
		s.st.bytesPushed.Add(int64(len(w.buf)) * 8)
	}
	return err
}

// maybeDrain kicks off a background drain of the spilled write-backs
// when there are some and no drain is already running. Called after
// every successful remote request — the cheapest possible "the network
// is back" signal.
func (s *TieredStore) maybeDrain() {
	if s.closing.Load() || s.st.spillDepth.Load() == 0 {
		return
	}
	if !s.drainBusy.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.drainBusy.Store(false)
		s.drainSpill()
	}()
}

// drainSpill PUTs spilled write-backs to the remote tier one at a time
// until none is left, Close begins, or a PUT fails (the next successful
// remote request retries). While a PUT is in flight its entry's done
// channel is re-armed, so a concurrent WriteVector of the vector waits
// for it exactly as for an eviction's PUT.
func (s *TieredStore) drainSpill() {
	for !s.closing.Load() {
		s.mu.Lock()
		var w *pendWB
		for _, e := range s.pend {
			if !e.pushing() {
				w = e
				break
			}
		}
		if w == nil {
			s.mu.Unlock()
			return
		}
		w.done = make(chan struct{})
		s.mu.Unlock()

		err := s.push("tier.spill_replay", w)
		s.mu.Lock()
		if err == nil {
			delete(s.pend, w.vi)
			s.st.spillDepth.Add(-1)
			s.st.spillReplayed.Add(1)
		}
		close(w.done)
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
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

// cacheRead reads the record in cache slot into dst. The cache's
// checksum table is indexed by slot, so a corrupt record is reported as
// vi, the vector the slot holds: that is the vector to recompute.
// Caller holds mu.
func (s *TieredStore) cacheRead(slot, vi int, dst []float64) error {
	err := s.cache.ReadVector(slot, dst)
	var ce *CorruptionError
	if errors.As(err, &ce) {
		ce.Vector = vi
	}
	return err
}

func (s *TieredStore) noteErr(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// admit installs data as vector vi in the cache tier, evicting an LRU
// victim when full. A dirty victim is copied into pend under the lock
// and pushed to the remote tier after it is released — readers consult
// pend, so the slot's new content never hides the victim's newest
// bytes. A victim the remote refuses stays in pend, spilled, for a
// later drain.
func (s *TieredStore) admit(vi int, data []float64, markDirty bool) error {
	s.mu.Lock()
	if markDirty {
		// This write supersedes any pending copy of vi: wait out a PUT
		// of it in flight, so remote writes of one vector stay ordered,
		// then drop the spilled bytes.
		for w := s.pend[vi]; w != nil; w = s.pend[vi] {
			if !w.pushing() {
				delete(s.pend, vi)
				s.st.spillDepth.Add(-1)
				break
			}
			done := w.done
			s.mu.Unlock()
			<-done
			s.mu.Lock()
		}
	}
	if slot, ok := s.slotOf[vi]; ok {
		err := s.cache.WriteVector(slot, data)
		if err == nil {
			s.now++
			s.stamp[slot] = s.now
			if markDirty {
				s.dirty[slot] = true
			}
		}
		s.mu.Unlock()
		return err
	}
	var evicted *pendWB
	var slot int
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		// LRU victim.
		victim, oldest := -1, int64(1<<62)
		for sl, st := range s.stamp {
			if s.viOf[sl] >= 0 && st < oldest {
				victim, oldest = sl, st
			}
		}
		if victim < 0 {
			s.mu.Unlock()
			return fmt.Errorf("ooc: tiered store cache has no evictable slot")
		}
		vvi := s.viOf[victim]
		if s.dirty[victim] {
			// The cache's checksum table keeps each slot's record length:
			// the victim's PUT moves that record and no more.
			wbuf := make([]float64, s.cache.recordLen(victim))
			if err := s.cacheRead(victim, vvi, wbuf); err != nil {
				// Never push bytes known to be corrupt: the victim stays
				// dirty and cached, and the caller gets the error.
				s.mu.Unlock()
				return fmt.Errorf("ooc: evicting dirty vector %d: %w", vvi, err)
			}
			evicted = &pendWB{vi: vvi, buf: wbuf, done: make(chan struct{})}
			s.pend[vvi] = evicted
			s.st.dirtyWritebacks.Add(1)
		}
		delete(s.slotOf, vvi)
		s.dirty[victim] = false
		s.st.evictions.Add(1)
		slot = victim
	}
	err := s.cache.WriteVector(slot, data)
	if err != nil {
		s.viOf[slot] = -1
		s.free = append(s.free, slot)
	} else {
		s.viOf[slot] = vi
		s.slotOf[vi] = slot
		s.now++
		s.stamp[slot] = s.now
		s.dirty[slot] = markDirty
	}
	s.mu.Unlock()

	if evicted != nil {
		perr := s.push("tier.remote_put", evicted)
		s.mu.Lock()
		if perr == nil {
			delete(s.pend, evicted.vi)
		} else {
			evicted.spilled = true
			s.st.spillAppends.Add(1)
			s.st.spillDepth.Add(1)
		}
		close(evicted.done)
		s.mu.Unlock()
	}
	return err
}
