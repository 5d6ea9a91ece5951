package ooc

// TieredStore — the storage substrate for remote-backed runs. It
// composes the three tiers the ROADMAP's cluster story needs:
//
//	RAM slots (ooc.Manager)
//	   │ miss / write-back
//	   ▼
//	local write-back cache  — bounded, CRC-32C-checked FileStore in
//	   │                      CacheDir; LRU; dirty vectors pushed to
//	   │ miss / dirty evict   the remote tier BEFORE the slot is reused
//	   ▼
//	remote backend          — any Store; ranged (RangeStore) backends
//	                          take Sync's adjacent dirty vectors as
//	                          one request
//
// A miss is one GET on the caller's goroutine, straight into the
// caller's buffer: the tier starts no goroutine at open and owns no
// fetch buffer. Concurrency is what the callers bring (the async
// pipeline's I/O workers), and the manager above already joins a demand
// read to an in-flight prefetch of the same vector, so the tier never
// sees two reads of one vector and keeps no dedup layer of its own.
//
// Crash safety: a dirty victim is written to the remote tier before
// its cache slot is reused, so the cache never holds the only copy of
// a vector while that copy is being discarded. The cache always starts
// cold: like every store, it serves only vectors this process wrote.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
)

// maxCoalesce caps how many adjacent dirty vectors one ranged Sync
// write-back may carry.
const maxCoalesce = 16

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// NumVectors and VectorLen fix the store geometry (float64 carrier
	// units, like every other Store).
	NumVectors, VectorLen int
	// CacheDir holds the cache file and, unless SpillDir says otherwise,
	// the spill journal. Created if missing.
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
	// backoff — a budget distinct from the manager's disk RetryPolicy,
	// so network tuning never loosens local-disk handling. The zero
	// value disables remote retries.
	RemoteRetry RetryPolicy
	// Breaker configures the per-backend circuit breaker. A breaker is
	// installed only when Breaker.Threshold > 0; without one the tier
	// keeps the pre-breaker fail-per-request behavior.
	Breaker BreakerConfig
	// SpillDir holds the write-back spill journal (default CacheDir).
	SpillDir string
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
	if c.SpillDir == "" {
		c.SpillDir = c.CacheDir
	}
	return nil
}

// TierStats is a snapshot of the tier counters.
type TierStats struct {
	// CacheHits and CacheMisses count reads served by / missing the
	// local cache tier (a read served from a pending dirty write-back
	// buffer counts as a hit — it never left the machine).
	CacheHits, CacheMisses int64
	// RemoteReads and RemoteWrites count ranged remote REQUESTS;
	// RemoteVectorsRead / RemoteVectorsWritten the vectors they carried.
	RemoteReads, RemoteWrites               int64
	RemoteVectorsRead, RemoteVectorsWritten int64
	// BytesFromCache and BytesFetched split read traffic by the tier
	// that served it; BytesPushed is remote write-back volume.
	BytesFromCache, BytesFetched, BytesPushed int64
	// Coalesced counts dirty vectors that rode another's ranged Sync
	// write-back instead of costing their own round trip.
	Coalesced int64
	// Evictions counts cache slots recycled; DirtyWritebacks the subset
	// that had to push a dirty vector remote first.
	Evictions, DirtyWritebacks int64

	// --- Network fault tolerance ---

	// RemoteErrors counts failed remote request attempts (timeouts,
	// drops, 5xx); RemoteRetries the re-issues the jittered remote
	// budget paid for them.
	RemoteErrors, RemoteRetries int64
	// BreakerState renders the circuit breaker position ("closed",
	// "open", "half-open"; "" when no breaker is configured).
	// BreakerOpens counts trips, ShortCircuits requests refused
	// locally while open.
	BreakerState  string
	BreakerOpens  int64
	ShortCircuits int64
	// JournalHits counts reads served from the spill journal's pending
	// payloads; JournalAppends dirty write-backs the journal absorbed;
	// JournalReplayed records replayed to the remote tier on recovery;
	// JournalDepth vectors currently pending; JournalBytes the on-disk
	// journal size.
	JournalHits     int64
	JournalAppends  int64
	JournalReplayed int64
	JournalDepth    int64
	JournalBytes    int64
	// Degraded reports the breaker not closed: the remote tier is
	// presumed unavailable and the engine answers from cache+recompute.
	Degraded bool
}

// tierWB is a dirty victim's payload in flight to the remote tier;
// reads of the vector are served from buf until the write lands.
type tierWB struct {
	vi   int
	buf  []float64
	done chan struct{}
}

// TieredStore implements Store over a local write-back cache backed by
// a remote store. Safe for the Store contract's concurrency (distinct
// vectors; plus concurrent reads of the same vector, each of which
// pays its own remote request).
type TieredStore struct {
	remote Store
	cfg    TieredConfig

	// mu guards the cache tier: placement maps, recency, dirty flags,
	// pending write-backs and the cache store's I/O. Cache I/O is local
	// and fast; remote I/O runs under mu only in Sync, whose callers are
	// quiesced.
	mu     sync.Mutex
	cache  *ChecksumStore
	slotOf map[int]int // vi -> cache slot
	viOf   []int       // slot -> vi (-1 = free)
	stamp  []int64     // slot -> recency
	dirty  []bool      // slot -> modified since last remote push
	now    int64
	free   []int
	wb     map[int]*tierWB // vi -> in-flight dirty write-back
	// firstErr latches the first write-back failure met while admitting
	// a vector whose read succeeded (the reader gets its data);
	// surfaced by Sync/Close.
	firstErr error

	// breaker (nil unless configured) guards every remote request;
	// journal absorbs dirty write-backs the remote cannot take.
	breaker       *Breaker
	journal       *SpillJournal
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
		coalesced                  atomic.Int64
		evictions, dirtyWritebacks atomic.Int64
		remoteErrors               atomic.Int64
		journalHits                atomic.Int64
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
		remote: remote,
		cfg:    cfg,
		slotOf: make(map[int]int),
		viOf:   make([]int, cfg.CacheVectors),
		stamp:  make([]int64, cfg.CacheVectors),
		dirty:  make([]bool, cfg.CacheVectors),
		wb:     make(map[int]*tierWB),
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
	if cfg.Breaker.Threshold > 0 {
		s.breaker = NewBreaker(cfg.Breaker)
		s.breaker.OnTransition(s.noteBreakerTransition)
	}
	if cfg.SpillDir != cfg.CacheDir {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			s.cache.Close()
			return nil, fmt.Errorf("ooc: creating spill dir: %w", err)
		}
	}
	s.journal, err = OpenSpillJournal(filepath.Join(cfg.SpillDir, spillJournalName), cfg.NumVectors, cfg.VectorLen)
	if err != nil {
		s.cache.Close()
		return nil, err
	}
	return s, nil
}

const spillJournalName = "spill.jrnl"

// Breaker exposes the remote tier's circuit breaker (nil when not
// configured), for instrumentation and tests.
func (s *TieredStore) Breaker() *Breaker { return s.breaker }

// Degraded implements Degrader: true while the breaker is anything but
// closed — the remote tier is presumed unavailable, the engine planner
// flips valid-but-remote reads into local recomputes, and the service
// layer reports not-ready.
func (s *TieredStore) Degraded() bool {
	return s.breaker != nil && s.breaker.State() != BreakerClosed
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
	ts := TierStats{
		CacheHits:            s.st.cacheHits.Load(),
		CacheMisses:          s.st.cacheMisses.Load(),
		RemoteReads:          s.st.remoteReads.Load(),
		RemoteWrites:         s.st.remoteWrites.Load(),
		RemoteVectorsRead:    s.st.remoteVecsR.Load(),
		RemoteVectorsWritten: s.st.remoteVecsW.Load(),
		BytesFromCache:       s.st.bytesCache.Load(),
		BytesFetched:         s.st.bytesFetched.Load(),
		BytesPushed:          s.st.bytesPushed.Load(),
		Coalesced:            s.st.coalesced.Load(),
		Evictions:            s.st.evictions.Load(),
		DirtyWritebacks:      s.st.dirtyWritebacks.Load(),
		RemoteErrors:         s.st.remoteErrors.Load(),
		RemoteRetries:        s.retriedRemote.Load(),
		JournalHits:          s.st.journalHits.Load(),
	}
	if s.breaker != nil {
		bs := s.breaker.Stats()
		ts.BreakerState = s.breaker.State().String()
		ts.BreakerOpens = bs.Opens
		ts.ShortCircuits = bs.ShortCircuits
		ts.Degraded = s.Degraded()
	}
	if s.journal != nil {
		js := s.journal.Stats()
		ts.JournalAppends = js.Appends
		ts.JournalReplayed = js.Replayed
		ts.JournalDepth = int64(js.Depth)
		ts.JournalBytes = js.FileBytes
	}
	return ts
}

// ReadVector implements Store: cache tier, in-flight write-back buffer
// and spill journal first, then one remote GET on the calling goroutine
// straight into dst.
func (s *TieredStore) ReadVector(vi int, dst []float64) error {
	if vi < 0 || vi >= s.cfg.NumVectors {
		return fmt.Errorf("ooc: tiered store read out of range: %d", vi)
	}
	if len(dst) != s.cfg.VectorLen {
		return fmt.Errorf("ooc: tiered store read size %d, want %d", len(dst), s.cfg.VectorLen)
	}
	s.mu.Lock()
	if slot, ok := s.slotOf[vi]; ok {
		s.now++
		s.stamp[slot] = s.now
		err := s.cache.ReadVector(slot, dst)
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
	if w, ok := s.wb[vi]; ok {
		// Dirty write-back in flight: its buffer is the newest copy.
		copy(dst, w.buf)
		s.mu.Unlock()
		s.st.cacheHits.Add(1)
		s.st.bytesCache.Add(int64(len(dst)) * 8)
		return nil
	}
	s.mu.Unlock()

	// A journaled vector's newest bytes live here, not remote (the
	// remote copy is stale until replay): serve locally.
	if s.journal != nil && s.journal.Snapshot(vi, dst) {
		s.st.journalHits.Add(1)
		s.st.bytesCache.Add(int64(len(dst)) * 8)
		return nil
	}

	s.st.cacheMisses.Add(1)
	err := s.tracedCall(context.Background(), "tier.remote_get", true, vi, 1, dst)
	s.st.remoteReads.Add(1)
	if err != nil {
		return err
	}
	s.st.remoteVecsR.Add(1)
	s.st.bytesFetched.Add(int64(len(dst)) * 8)
	if aerr := s.admit(vi, dst, false); aerr != nil {
		// The fetch itself succeeded — the reader gets its data; an
		// admission (eviction write-back) failure is latched for
		// Sync/Close like a lost pipeline write-back.
		s.noteErr(aerr)
	}
	return nil
}

// WriteVector implements Store: write-back semantics — the payload
// lands dirty in the cache tier and reaches the remote tier on
// eviction or Sync.
func (s *TieredStore) WriteVector(vi int, src []float64) error {
	if vi < 0 || vi >= s.cfg.NumVectors {
		return fmt.Errorf("ooc: tiered store write out of range: %d", vi)
	}
	if len(src) != s.cfg.VectorLen {
		return fmt.Errorf("ooc: tiered store write size %d, want %d", len(src), s.cfg.VectorLen)
	}
	// A write supersedes any in-flight write-back of the same vector;
	// wait for it so remote writes of one vector stay ordered.
	s.mu.Lock()
	w := s.wb[vi]
	s.mu.Unlock()
	if w != nil {
		<-w.done
	}
	return s.admit(vi, src, true)
}

// Close waits out a background journal drain, pushes dirty state
// remote and closes the cache. The remote store stays open — the caller
// owns it.
func (s *TieredStore) Close() error {
	s.closing.Store(true)
	s.bg.Wait()
	first := s.Sync()
	if s.journal != nil {
		if err := s.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.cache.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Sync pushes every dirty cached vector to the remote tier (coalescing
// adjacent runs into ranged writes). Callers must be quiesced (no
// concurrent reads/writes), the same contract as Manager.Flush.
func (s *TieredStore) Sync() error {
	s.mu.Lock()
	for {
		var ch chan struct{}
		for _, w := range s.wb {
			ch = w.done
			break
		}
		if ch == nil {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	type dv struct{ vi, slot int }
	var dirties []dv
	for slot, d := range s.dirty {
		if d && s.viOf[slot] >= 0 {
			dirties = append(dirties, dv{s.viOf[slot], slot})
		}
	}
	sort.Slice(dirties, func(i, j int) bool { return dirties[i].vi < dirties[j].vi })
	vecLen := s.cfg.VectorLen
	var first error
	for i := 0; i < len(dirties); {
		j := i + 1
		for j < len(dirties) && j-i < maxCoalesce && dirties[j].vi == dirties[j-1].vi+1 {
			j++
		}
		buf := make([]float64, (j-i)*vecLen)
		next := j
		for k := i; k < j; k++ {
			if err := s.cache.ReadVector(dirties[k].slot, buf[(k-i)*vecLen:(k-i+1)*vecLen]); err != nil {
				// Never push bytes known to be corrupt (admit refuses the
				// same victim): the run ends before the unreadable vector,
				// which is stepped over and stays dirty, and Sync reports
				// the error.
				if first == nil {
					first = err
				}
				j, next = k, k+1
			}
		}
		if j == i {
			i = next
			continue
		}
		buf = buf[:(j-i)*vecLen]
		err := s.tracedCall(context.Background(), "tier.remote_put", false, dirties[i].vi, j-i, buf)
		if err != nil {
			// Remote unavailable mid-sync: spill the run to the journal
			// instead of failing the sync. Once every vector's newest
			// bytes are durable SOMEWHERE (remote or journal), the sync
			// has done its job; recovery replays the journal.
			spilled := s.journal != nil
			if spilled {
				for k := i; k < j; k++ {
					if jerr := s.journal.Append(dirties[k].vi, buf[(k-i)*vecLen:(k-i+1)*vecLen]); jerr != nil {
						spilled = false
						break
					}
				}
			}
			if spilled {
				for k := i; k < j; k++ {
					s.dirty[dirties[k].slot] = false
				}
			} else if first == nil {
				first = err
			}
		} else {
			s.st.remoteWrites.Add(1)
			s.st.remoteVecsW.Add(int64(j - i))
			s.st.bytesPushed.Add(int64(len(buf)) * 8)
			s.st.coalesced.Add(int64(j - i - 1))
			for k := i; k < j; k++ {
				s.dirty[dirties[k].slot] = false
			}
		}
		i = next
	}
	if s.firstErr != nil && first == nil {
		first = s.firstErr
	}
	s.mu.Unlock()
	// Best-effort journal replay: a healed network empties it here; a
	// still-down one leaves the entries durable on disk (Sync's job is
	// durability, not connectivity).
	if s.journal != nil && s.journal.Depth() > 0 {
		s.drainNow(context.Background())
	}
	if err := SyncStore(s.remote); err != nil && first == nil && !IsTransient(err) && !IsCircuitOpen(err) {
		first = err
	}
	return first
}

// FetchCost implements FetchCoster: a cached, write-back-pending or
// journaled vector is local; anything else is a remote round trip.
func (s *TieredStore) FetchCost(vi int) (time.Duration, bool) {
	s.mu.Lock()
	_, cached := s.slotOf[vi]
	if !cached {
		_, cached = s.wb[vi]
	}
	s.mu.Unlock()
	if !cached && s.journal != nil && s.journal.Has(vi) {
		cached = true // journal payloads are served locally
	}
	return 0, !cached
}

// MemOverheadBytes estimates the tier's heap footprint beyond the
// manager's slot pool: placement map and per-slot metadata, the
// journal's index, and the one float64 buffer a dirty write-back holds
// while in flight. A read holds none — it lands in the caller's slot —
// so an idle tier's charge does not depend on VectorLen. Watchdog and
// Resize subtract it from the memory budget.
func (s *TieredStore) MemOverheadBytes() int64 {
	const mapEntry = 48 // rough per-entry cost of a map[int]int
	s.mu.Lock()
	n := int64(len(s.slotOf))*mapEntry + int64(len(s.wb))*(mapEntry+int64(s.cfg.VectorLen)*8)
	s.mu.Unlock()
	n += int64(s.cfg.CacheVectors) * (8 + 8 + 1) // viOf, stamp, dirty
	if s.journal != nil {
		n += s.journal.MemBytes()
	}
	return n
}

// tracedCall is remoteCall under a child of the active request span
// (none when untraced), so a traced request shows each round trip it
// paid for, with the run geometry as attributes.
func (s *TieredStore) tracedCall(ctx context.Context, name string, read bool, vi, count int, buf []float64) error {
	var span *obs.Span
	if sp := s.currentSpan(); sp != nil {
		span = sp.StartChild(name)
		span.SetAttr("vi", int64(vi))
		span.SetAttr("count", int64(count))
		span.SetAttr("bytes", int64(len(buf))*8)
		ctx = obs.ContextWithSpan(ctx, span)
	}
	err := s.remoteCall(ctx, read, vi, count, buf)
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

// remoteCall is the single guarded gateway for remote I/O: circuit
// breaker admission, a per-attempt deadline and the jittered remote
// retry budget. buf is read for writes and filled for reads.
func (s *TieredStore) remoteCall(ctx context.Context, read bool, vi, count int, buf []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	opName := "write"
	if read {
		opName = "read"
	}
	op := func() error {
		if s.breaker != nil && !s.breaker.Allow() {
			return fmt.Errorf("ooc: remote %s [%d,%d): %w", opName, vi, vi+count, ErrCircuitOpen)
		}
		actx := ctx
		cancel := context.CancelFunc(nil)
		if s.cfg.RemoteDeadline > 0 {
			actx, cancel = context.WithTimeout(ctx, s.cfg.RemoteDeadline)
		}
		start := time.Now()
		var err error
		if read {
			err = ReadRangeOf(actx, s.remote, s.cfg.VectorLen, vi, count, buf)
		} else {
			err = WriteRangeOf(actx, s.remote, s.cfg.VectorLen, vi, count, buf)
		}
		if cancel != nil {
			cancel()
		}
		s.remoteObserved(time.Since(start))
		if s.breaker != nil {
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

// maybeDrain kicks off a background journal replay when there is
// something to replay and no drain is already running. Called after
// every successful remote request — the cheapest possible "the
// network is back" signal.
func (s *TieredStore) maybeDrain() {
	if s.journal == nil || s.closing.Load() || s.journal.Depth() == 0 {
		return
	}
	if !s.drainBusy.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.drainBusy.Store(false)
		s.drainJournal(context.Background())
	}()
}

// drainNow runs a synchronous journal replay, waiting out any
// background drain first (Sync/Close path — callers are quiesced).
func (s *TieredStore) drainNow(ctx context.Context) error {
	if s.journal == nil {
		return nil
	}
	for !s.drainBusy.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer s.drainBusy.Store(false)
	return s.drainJournal(ctx)
}

// drainJournal replays pending journal records to the remote tier —
// newest copy per vector, from the journal's in-memory index; the
// checksum layer above the tier verifies them on the next read.
// Entries superseded by a dirty cache copy are discarded (the cache
// push carries newer bytes). Stops at the first error, leaving the
// remainder durable on disk for the next recovery signal.
func (s *TieredStore) drainJournal(ctx context.Context) error {
	buf := make([]float64, s.cfg.VectorLen)
	for _, vi := range s.journal.Pending() {
		s.mu.Lock()
		slot, cached := s.slotOf[vi]
		superseded := cached && s.dirty[slot]
		s.mu.Unlock()
		if superseded {
			s.journal.Discard(vi)
			continue
		}
		if !s.journal.Snapshot(vi, buf) {
			continue
		}
		if err := s.tracedCall(ctx, "tier.journal_replay", false, vi, 1, buf); err != nil {
			return err
		}
		s.st.remoteWrites.Add(1)
		s.st.remoteVecsW.Add(1)
		s.st.bytesPushed.Add(int64(len(buf)) * 8)
		if err := s.journal.Remove(vi); err != nil {
			return err
		}
	}
	return nil
}

// ProbeRemote issues one guarded single-vector read and discards the
// data. Degraded mode deliberately stops touching the remote tier,
// which also starves the breaker of the probe traffic it needs to
// notice recovery; health loops call this to keep probing. No-op when
// the breaker is closed.
func (s *TieredStore) ProbeRemote(ctx context.Context) error {
	if !s.Degraded() {
		return nil
	}
	buf := make([]float64, s.cfg.VectorLen)
	return s.remoteCall(ctx, true, 0, 1, buf)
}

func (s *TieredStore) noteErr(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// admit installs data as vector vi in the cache tier, evicting an LRU
// victim when full. A dirty victim is copied out under the lock and
// pushed to the remote tier after it is released — remote-first with
// respect to slot reuse (the slot's new content is only trusted
// because the old content is either clean on the remote or carried by
// the pending write-back buffer that readers consult).
func (s *TieredStore) admit(vi int, data []float64, markDirty bool) error {
	var pushWB *tierWB
	s.mu.Lock()
	if slot, ok := s.slotOf[vi]; ok {
		err := s.cache.WriteVector(slot, data)
		if err == nil {
			s.now++
			s.stamp[slot] = s.now
			if markDirty {
				s.dirty[slot] = true
				if s.journal != nil {
					// The dirty cache copy supersedes any journaled
					// payload; replaying the old bytes would be wasted
					// (and transiently wrong) work.
					s.journal.Discard(vi)
				}
			}
		}
		s.mu.Unlock()
		return err
	}
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
			wbuf := make([]float64, s.cfg.VectorLen)
			if err := s.cache.ReadVector(victim, wbuf); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("ooc: evicting dirty vector %d: %w", vvi, err)
			}
			pushWB = &tierWB{vi: vvi, buf: wbuf, done: make(chan struct{})}
			s.wb[vvi] = pushWB
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
		if markDirty && s.journal != nil {
			s.journal.Discard(vi)
		}
	}
	s.mu.Unlock()

	if pushWB != nil {
		werr := s.tracedCall(context.Background(), "tier.remote_put", false, pushWB.vi, 1, pushWB.buf)
		if werr == nil {
			s.st.remoteWrites.Add(1)
			s.st.remoteVecsW.Add(1)
			s.st.bytesPushed.Add(int64(len(pushWB.buf)) * 8)
		} else if s.journal != nil {
			// The remote tier cannot take this vector and its cache
			// slot is already promised away: the journal absorbs the
			// only remaining copy, durably, before any reader could
			// miss both the wb buffer and the journal and fetch the
			// stale remote bytes. Replayed on recovery.
			if jerr := s.journal.Append(pushWB.vi, pushWB.buf); jerr == nil {
				werr = nil
			} else {
				werr = fmt.Errorf("ooc: spilling evicted vector %d: %v (remote: %w)", pushWB.vi, jerr, werr)
			}
		}
		s.mu.Lock()
		if s.wb[pushWB.vi] == pushWB {
			delete(s.wb, pushWB.vi)
		}
		s.mu.Unlock()
		close(pushWB.done)
		if werr != nil && err == nil {
			err = fmt.Errorf("ooc: writing back evicted vector %d: %w", pushWB.vi, werr)
		}
	}
	return err
}
