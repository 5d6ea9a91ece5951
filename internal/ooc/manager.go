package ooc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
	"oocphylo/internal/record"
)

// MinSlots is the paper's hard floor on resident vectors: computing one
// ancestral vector needs it and its two children in RAM simultaneously
// (§3.2, "we must ensure that m >= 3").
const MinSlots = 3

// Stats holds the manager's access counters — the quantities plotted in
// the paper's Figures 2-4.
type Stats struct {
	// Requests counts getxvector-style accesses.
	Requests int64
	// Hits counts accesses satisfied from a RAM slot.
	Hits int64
	// Misses counts accesses that required a swap.
	Misses int64
	// Reads counts vectors actually read from the store (Misses minus
	// the reads that read skipping eliminated).
	Reads int64
	// SkippedReads counts swap-ins whose read was elided (§3.4).
	SkippedReads int64
	// Writes counts vectors written back to the store.
	Writes int64
	// SkippedWrites counts write-backs elided because the vector was not
	// modified since it was faulted in (evictions and Flush alike).
	SkippedWrites int64
	// BytesRead and BytesWritten total the store traffic: the bytes of
	// the records moved, which a prefix record makes fewer than Reads or
	// Writes times the slot width.
	BytesRead, BytesWritten int64
}

// MissRate returns Misses/Requests (Figure 2's y axis).
func (s Stats) MissRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Requests)
}

// ReadRate returns Reads/Requests (Figure 3's y axis). Without read
// skipping it equals MissRate.
func (s Stats) ReadRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Requests)
}

// Config configures a Manager.
type Config struct {
	// NumVectors is n, the total ancestral vector count.
	NumVectors int
	// VectorLen is the per-vector payload length in float64s (the
	// paper's slot width w, in doubles).
	VectorLen int
	// Slots is m, the number of RAM slots. Values above NumVectors are
	// capped (f = 1 holds everything in RAM); values below MinSlots
	// (when NumVectors allows) are rejected.
	Slots int
	// Strategy is the replacement policy; required.
	Strategy Strategy
	// ReadSkipping enables §3.4's write-intent read elision.
	ReadSkipping bool
	// Store is the backing storage; required.
	Store Store

	// Async enables the background I/O pipeline (see pipeline.go):
	// prefetches are serviced by worker goroutines and evictions hand
	// their victim buffer to a write-back goroutine instead of
	// blocking. Results are bit-identical to the synchronous manager;
	// only the overlap of I/O with compute changes. The Store must be
	// safe for concurrent use on distinct vectors (all stores in this
	// package are). Close the manager to drain the pipeline.
	Async bool
	// IOWorkers is the number of background fetch goroutines servicing
	// the prefetch queue (default 2). Only used when Async is set.
	IOWorkers int

	// Retry governs re-issuing store operations that fail with a
	// transient error (ErrTransientIO) — capped exponential backoff on
	// the synchronous demand path and in the async pipeline workers
	// alike. The zero value disables retries.
	Retry RetryPolicy
}

// fetchQueuePerWorker bounds the prefetches waiting for a fetch worker
// at this many per worker; Prefetch blocks when the queue is full.
const fetchQueuePerWorker = 2

// writeBuffers is the number of spare slot buffers backing asynchronous
// write-back. An eviction blocks only when all spares are already in
// the write queue. Each buffer costs VectorLen float64s on top of the
// Slots budget. With prefix records the writer keeps up on average and
// what blocks is a burst of cheap newviews near the tips, each evicting
// a dirty vector; four spares absorb them (on the benchmark's full
// traversals, 0.9–1.1 s of buffer wait per 100 ops with two, 0.3–0.4 s
// with four).
const writeBuffers = 4

// SlotsForFraction returns m = max(MinSlots, round(f*n)) capped at n —
// the paper's parameterisation of available RAM.
func SlotsForFraction(f float64, n int) int {
	m := int(f*float64(n) + 0.5)
	if m < MinSlots {
		m = MinSlots
	}
	if m > n {
		m = n
	}
	return m
}

// SlotsForBytes returns the m a byte grant buys — the paper's -L rule.
// overhead is what the store itself keeps on the same heap (a tiered
// store's cache index and in-flight buffers, see StoreMemOverhead); it
// is charged first, the rest is divided into whole vectors of vecBytes,
// and the result is floored at MinSlots and capped at n, so a grant too
// small for three vectors still yields a pool the PLF can run in.
func SlotsForBytes(grant, overhead, vecBytes int64, n int) int {
	m := (grant - overhead) / vecBytes
	if m < MinSlots {
		m = MinSlots
	}
	if m > int64(n) {
		m = int64(n)
	}
	return int(m)
}

// Manager is the out-of-core ancestral-vector manager: it implements
// the plf.VectorProvider contract over a bounded set of RAM slots and a
// backing Store. Vector/Prefetch/Flush/Close must come from a single
// caller (as the likelihood engine guarantees); with Config.Async the
// manager runs I/O goroutines internally, but all bookkeeping still
// happens on the single calling goroutine. The stats snapshots
// (Stats/PrefetchStats/PipelineStats) MAY be read from any goroutine —
// the debug endpoint samples them mid-run — so every public method
// takes the stats mutex, making each counter group a consistent
// snapshot rather than a torn read.
type Manager struct {
	cfg Config

	// mu serialises the public API against concurrent stats snapshots.
	// The compute path holds it for the duration of each operation
	// (uncontended: one futex-free lock per request, dwarfed by the
	// kernel work between requests); snapshot getters hold it briefly.
	mu sync.Mutex
	// mx holds the native observability instruments (see obs.go). The
	// zero value means uninstrumented: every obs call is a nil-check
	// no-op and no clock is read.
	mx managerObs
	// span, when set via SetSpan, is the request-scoped tracing span
	// fault-ins and evictions are emitted under (nil when untraced).
	// Guarded by mu like the rest of the demand path.
	span *obs.Span

	// slots holds the m vector-wide RAM buffers.
	slots [][]float64
	// slotItem maps slot -> resident item, -1 if empty.
	slotItem []int
	// itemSlot maps item -> slot, -1 if on "disk" (the paper's
	// itemvector: RAM address vs file offset; offsets here are implicit,
	// vector vi lives at file position vi).
	itemSlot []int
	// lens[vi] is the length of vector vi's store record: what its last
	// write-back wrote (see record), VectorLen before the first. Every
	// read of vi asks the store for exactly that many float64s.
	lens []int
	// dirty marks slots written since fault-in; only those are written
	// back.
	dirty []bool
	// prefetched marks slots staged by Prefetch and not yet demanded.
	prefetched []bool
	// candidates is scratch for building the evictable set per miss.
	candidates []int
	slotOf     []int // parallel scratch: slot of each candidate

	stats  Stats
	pstats PrefetchStats
	rstats ResizeStats

	// ctx, when set via SetContext, aborts the blocking edges of the
	// I/O path (retry backoff, full fetch queue, spare-buffer waits).
	// Store operations themselves always run to completion, so
	// cancellation can never leave a torn vector on disk.
	ctx context.Context
	// closing latches once Close has been entered; Resize refuses to
	// restructure the slot pool from then on.
	closing atomic.Bool

	// pipe is the async I/O pipeline (nil when running synchronously).
	pipe *pipeline
	// inflight tracks, per slot, the background fetch still filling it.
	inflight  []*fetchReq
	pipeStats PipelineStats
	// retried counts transient-error retries; shared with the pipeline
	// workers, hence atomic.
	retried atomic.Int64
}

// ErrAllPinned is returned when a miss cannot find an evictable slot
// because every resident vector is pinned — only possible if the caller
// pins more than Slots-1 vectors, which the likelihood engine's
// three-vector working set never does under m >= MinSlots.
var ErrAllPinned = errors.New("ooc: all resident vectors are pinned; cannot evict")

// NewManager validates cfg and allocates the slot pool. Exactly
// Slots*VectorLen float64s of vector memory are allocated, enforcing
// the paper's -L style memory limitation.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.NumVectors < 0 || cfg.VectorLen <= 0 {
		return nil, fmt.Errorf("ooc: invalid geometry: %d vectors of %d", cfg.NumVectors, cfg.VectorLen)
	}
	if cfg.Store == nil {
		return nil, errors.New("ooc: Store is required")
	}
	if cfg.Strategy == nil {
		return nil, errors.New("ooc: Strategy is required")
	}
	if cfg.Slots > cfg.NumVectors {
		cfg.Slots = cfg.NumVectors
	}
	if err := validateSlots(cfg.Slots, cfg.NumVectors, 0); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:        cfg,
		slots:      make([][]float64, cfg.Slots),
		slotItem:   make([]int, cfg.Slots),
		itemSlot:   make([]int, cfg.NumVectors),
		lens:       make([]int, cfg.NumVectors),
		dirty:      make([]bool, cfg.Slots),
		prefetched: make([]bool, cfg.Slots),
	}
	// One allocation per slot (not a single contiguous slab) so that
	// Resize can genuinely release memory on shrink: a dropped slot's
	// buffer becomes garbage the moment nothing references it.
	for i := range m.slots {
		m.slots[i] = make([]float64, cfg.VectorLen)
		m.slotItem[i] = -1
	}
	for i := range m.itemSlot {
		m.itemSlot[i] = -1
		m.lens[i] = cfg.VectorLen
	}
	if cfg.Async {
		if cfg.IOWorkers < 1 {
			cfg.IOWorkers = 2
		}
		m.cfg = cfg
		m.pipe = newPipeline(cfg.Store, cfg.VectorLen, cfg.IOWorkers, fetchQueuePerWorker*cfg.IOWorkers, cfg.Retry, &m.retried)
		m.inflight = make([]*fetchReq, cfg.Slots)
		m.pipeStats.Enabled = true
	}
	return m, nil
}

// NumVectors implements plf.VectorProvider.
func (m *Manager) NumVectors() int { return m.cfg.NumVectors }

// VectorLen implements plf.VectorProvider.
func (m *Manager) VectorLen() int { return m.cfg.VectorLen }

// Slots returns m, the resident-vector capacity. Safe from any
// goroutine (the slot pool can change size at runtime via Resize).
func (m *Manager) Slots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots)
}

// SetContext attaches ctx to the manager's blocking I/O edges: retry
// backoff sleeps, waits on a full fetch queue and waits for a spare
// write-back buffer all abort with an error wrapping ctx.Err() once
// ctx is cancelled. Individual store reads/writes still run to
// completion — cancellation stops at operation boundaries, so the
// backing file never holds a torn vector — and Flush/Close remain
// usable after cancellation to persist residents for a checkpoint.
// Must be called from the single API goroutine; nil restores the
// default (never cancelled).
func (m *Manager) SetContext(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctx = ctx
}

// SetSpan attributes subsequent activity (fault-in, eviction,
// prefetch and join-wait child spans, and the pipeline transfers queued
// meanwhile) to the given span; nil detaches. Callers set it around one
// request's serialized work, the same discipline as SetContext.
func (m *Manager) SetSpan(sp *obs.Span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.span = sp
}

// Stats returns a copy of the access counters. Safe from any
// goroutine: the mutex guarantees the copy is not torn mid-operation.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// PipelineStats returns a snapshot of the I/O pipeline counters. The
// synchronous manager fills StallTime too (demand-path store calls),
// so sync and async stall are directly comparable. Safe from any
// goroutine.
func (m *Manager) PipelineStats() PipelineStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pipelineStatsLocked()
}

// pipelineStatsLocked assembles the snapshot; callers hold m.mu.
func (m *Manager) pipelineStatsLocked() PipelineStats {
	ps := m.pipeStats
	ps.Retries = m.retried.Load()
	if m.pipe != nil {
		ps.OverlappedBytes = m.pipe.overlapped.Load()
		ps.WriteQueueHits = m.pipe.wqHits.Load()
		ps.QueueDepthMax = m.pipe.depthMax.Load()
	}
	return ps
}

// stall runs f on the compute thread and charges its duration to the
// pipeline's stall ledger — the time compute was blocked on I/O.
func (m *Manager) stall(f func() error) error {
	start := time.Now()
	err := f()
	m.pipeStats.StallTime += time.Since(start)
	return err
}

// unreadable applies the one rule for a read the store cannot serve
// right now — retries exhausted on transient I/O, or the remote circuit
// open: the error is wrapped in a VectorReadError so the engine can
// recompute vector vi instead of failing the pass. Anything else (nil
// included) passes through.
func unreadable(vi int, err error) error {
	if err != nil && (IsTransient(err) || IsCircuitOpen(err)) {
		return &VectorReadError{Vi: vi, Err: err}
	}
	return err
}

// joinSlot waits for the background fetch still filling slot s (if
// any) and returns its error, under the same rule as a demand read. The
// wait is charged as stall time. A
// successful join is where a background prefetch lands in the ledgers:
// Reads/BytesRead must reflect fetches that completed, not fetches that
// were merely enqueued, so that a failed fetch leaves the counters
// exactly as a failed synchronous prefetch would.
func (m *Manager) joinSlot(s int) error {
	f := m.inflight[s]
	if f == nil {
		return nil
	}
	m.inflight[s] = nil
	start := time.Now()
	<-f.done
	wait := time.Since(start)
	m.pipeStats.StallTime += wait
	m.pipeStats.JoinWait += wait
	if f.err == nil {
		m.pstats.Reads++
		m.stats.BytesRead += int64(len(f.dst)) * 8
	}
	m.spanEvent("ooc.join_wait", f.vi, s, start, wait)
	return unreadable(f.vi, f.err)
}

// demandRead reads vi into dst on the compute thread, retrying
// transient errors per the configured policy. Under the async pipeline
// a pending write-back buffer serves it first (read-after-write). What
// the store still cannot serve comes back as unreadable.
func (m *Manager) demandRead(vi int, dst []float64) error {
	if m.pipe != nil && m.pipe.readPending(vi, dst) {
		return nil
	}
	return unreadable(vi, m.cfg.Retry.runCtx(m.ctx, &m.retried, func() error {
		return m.cfg.Store.ReadVector(vi, dst)
	}))
}

// storeWrite writes buf as vector vi on the compute thread, retrying
// transient errors per the configured policy.
func (m *Manager) storeWrite(vi int, buf []float64) error {
	return m.cfg.Retry.runCtx(m.ctx, &m.retried, func() error {
		return m.cfg.Store.WriteVector(vi, buf)
	})
}

// recordOf is the part of slot s a read of vector vi fills: vi's record.
func (m *Manager) recordOf(vi, s int) []float64 { return m.slots[s][:m.lens[vi]] }

// takeRecord is the part of slot s that vector vi's write-back stores,
// which becomes vi's record: the prefix the engine stamped into the
// slot's last word, or the whole slot (package record).
func (m *Manager) takeRecord(vi, s int) []float64 {
	m.lens[vi] = record.Len(m.slots[s])
	return m.recordOf(vi, s)
}

// Resident reports whether vector vi currently occupies a RAM slot.
func (m *Manager) Resident(vi int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return vi >= 0 && vi < len(m.itemSlot) && m.itemSlot[vi] >= 0
}

// FetchCost implements FetchCoster over the slot pool: a resident
// vector is local; anything else is whatever the backing store says
// (local for stores with no remote tier). The engine's degraded-mode
// planner consults this to find the reads it must recompute instead.
func (m *Manager) FetchCost(vi int) (time.Duration, bool) {
	if m.Resident(vi) {
		return 0, false
	}
	return StoreFetchCost(m.cfg.Store, vi)
}

// Degraded reports whether the backing store's remote tier is
// temporarily unavailable (circuit breaker open). The engine's planner
// matches this structurally and flips to recompute-preferred while it
// holds, so passes keep completing from cache + local compute.
func (m *Manager) Degraded() bool {
	return StoreDegraded(m.cfg.Store)
}

// MemOverheadBytes reports heap the backing store holds on the
// manager's behalf — cache-tier indexes and in-flight remote buffers —
// so budget-aware callers (the Watchdog, Resize policies) can charge it
// against the same soft budget as the slot pool. Zero for plain
// file/memory stores.
func (m *Manager) MemOverheadBytes() int64 {
	return StoreMemOverhead(m.cfg.Store)
}

// Vector implements plf.VectorProvider: the paper's getxvector(). It
// returns the RAM address of vector vi, swapping it in if necessary.
// write declares that the caller overwrites the entire vector before
// reading it, enabling read skipping; pinned lists vector indices that
// must not be evicted by this call.
func (m *Manager) Vector(vi int, write bool, pinned ...int) ([]float64, error) {
	if vi < 0 || vi >= m.cfg.NumVectors {
		return nil, fmt.Errorf("ooc: vector index %d out of range [0, %d)", vi, m.cfg.NumVectors)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Requests++
	m.cfg.Strategy.Touch(vi)
	if s := m.itemSlot[vi]; s >= 0 {
		joinFailed := false
		if m.pipe != nil && m.inflight[s] != nil {
			// The prefetch that staged vi is still in flight: join it
			// rather than re-reading (this wait is the residue of
			// latency the pipeline could not hide).
			m.pipeStats.JoinedFetches++
			if err := m.joinSlot(s); err != nil {
				// The background read failed; unmap so the vector is
				// not resident with garbage, mirroring a failed
				// synchronous prefetch (which leaves the slot empty).
				// A failed join must not be ledgered as a hit.
				m.itemSlot[vi] = -1
				m.slotItem[s] = -1
				m.prefetched[s] = false
				if IsCorruption(err) {
					m.pipeStats.CorruptReads++
				}
				if !write || !IsCorruption(err) {
					return nil, err
				}
				// Write-intent access to a corrupt staged copy: the
				// caller overwrites the whole payload anyway, so fall
				// through to the miss path (the slot just freed is
				// available) instead of failing the computation.
				joinFailed = true
			}
		}
		if !joinFailed {
			m.stats.Hits++
			if m.prefetched[s] {
				m.prefetched[s] = false
				m.pstats.Hits++
			}
			if write {
				m.dirty[s] = true
			}
			return m.slots[s], nil
		}
	}
	m.stats.Misses++
	var missStart time.Time
	if m.mx.on || m.span != nil {
		missStart = time.Now()
	}

	slot, err := m.freeSlot(vi, pinned)
	if err != nil {
		return nil, err
	}
	// Swap in.
	skipRead := write && m.cfg.ReadSkipping
	if skipRead {
		m.stats.SkippedReads++
	} else if err := m.stall(func() error { return m.demandRead(vi, m.recordOf(vi, slot)) }); err != nil {
		if !IsCorruption(err) {
			return nil, err
		}
		m.pipeStats.CorruptReads++
		if !write {
			return nil, err
		}
		// The stored payload is corrupt, but the caller promised to
		// overwrite the entire vector before reading it: recover by
		// treating the fault-in like a skipped read instead of failing.
	} else {
		m.stats.Reads++
		m.stats.BytesRead += int64(m.lens[vi]) * 8
	}
	m.slotItem[slot] = vi
	m.itemSlot[vi] = slot
	m.dirty[slot] = write
	m.prefetched[slot] = false
	if m.mx.on || m.span != nil {
		dur := time.Since(missStart)
		m.mx.faultIn.Observe(dur.Seconds())
		m.spanEvent("ooc.fault_in", vi, slot, missStart, dur)
	}
	return m.slots[slot], nil
}

// freeSlot returns an empty slot, evicting a victim if none is free.
func (m *Manager) freeSlot(requested int, pinned []int) (int, error) {
	for s, it := range m.slotItem {
		if it < 0 {
			if m.slots[s] == nil {
				// A slot added by a grow is allocated on first use, so
				// growing the pool never pays for memory it does not need.
				m.slots[s] = make([]float64, m.cfg.VectorLen)
			}
			return s, nil
		}
	}
	victim, slot, err := m.pickVictim(requested, pinned)
	if err != nil {
		return 0, err
	}
	if err := m.evict(victim, slot); err != nil {
		return 0, err
	}
	return slot, nil
}

// pickVictim chooses an evictable resident via the replacement
// strategy: the candidate set is every resident item minus pins.
// requested is the incoming item the eviction makes room for, or -1
// when the pool itself is shrinking (Resize). Callers hold m.mu.
func (m *Manager) pickVictim(requested int, pinned []int) (victim, slot int, err error) {
	m.candidates = m.candidates[:0]
	m.slotOf = m.slotOf[:0]
	for s, it := range m.slotItem {
		if it < 0 {
			continue
		}
		isPinned := false
		for _, p := range pinned {
			if p == it {
				isPinned = true
				break
			}
		}
		if !isPinned {
			m.candidates = append(m.candidates, it)
			m.slotOf = append(m.slotOf, s)
		}
	}
	if len(m.candidates) == 0 {
		return -1, -1, ErrAllPinned
	}
	pick := m.cfg.Strategy.PickVictim(m.candidates, requested)
	if pick < 0 || pick >= len(m.candidates) {
		return -1, -1, fmt.Errorf("ooc: strategy %s picked invalid victim %d of %d",
			m.cfg.Strategy.Name(), pick, len(m.candidates))
	}
	return m.candidates[pick], m.slotOf[pick], nil
}

// evict writes the victim back if it was modified since fault-in and
// releases its slot. Under the async pipeline the write is queued to
// the writer goroutine and a spare buffer is patched into the slot, so
// the call returns without waiting for the store.
func (m *Manager) evict(victim, slot int) error {
	if m.pipe != nil && m.inflight[slot] != nil {
		// The victim's own stage-in is still in flight; its buffer
		// cannot be written back or reused until the read completes.
		if err := m.joinSlot(slot); err != nil {
			// The stage-in never delivered valid data, so the buffer
			// holds garbage: writing it back would clobber the store's
			// authoritative copy. Drop the slot instead — a later
			// demand access faults the vector in again and surfaces
			// the error to the caller if it persists.
			if IsCorruption(err) {
				m.pipeStats.CorruptReads++
			}
			m.pipeStats.DroppedWritebacks++
			m.mx.evictions.Inc()
			m.itemSlot[victim] = -1
			m.slotItem[slot] = -1
			m.dirty[slot] = false
			if m.prefetched[slot] {
				m.prefetched[slot] = false
				m.pstats.Wasted++
			}
			return nil
		}
	}
	// A clean slot's content matches the store (it was faulted in by a
	// read and never modified), so its write-back is skipped.
	if m.dirty[slot] {
		var ws time.Time
		if m.span != nil || (m.mx.on && m.pipe == nil) {
			ws = time.Now()
		}
		if m.pipe != nil {
			if err := m.asyncWriteBack(victim, slot); err != nil {
				return err
			}
			if m.span != nil {
				// Async: the span covers only the hand-off (spare wait);
				// the store write itself is the writer's pipe.write_back.
				m.spanEvent("ooc.evict", victim, slot, ws, time.Since(ws))
			}
		} else {
			if err := m.stall(func() error { return m.storeWrite(victim, m.takeRecord(victim, slot)) }); err != nil {
				return err
			}
			if m.mx.on || m.span != nil {
				dur := time.Since(ws)
				m.mx.evictWrite.Observe(dur.Seconds())
				m.spanEvent("ooc.evict", victim, slot, ws, dur)
			}
		}
		m.stats.Writes++
		m.stats.BytesWritten += int64(m.lens[victim]) * 8
	} else {
		m.stats.SkippedWrites++
	}
	m.mx.evictions.Inc()
	m.itemSlot[victim] = -1
	m.slotItem[slot] = -1
	m.dirty[slot] = false
	if m.prefetched[slot] {
		m.prefetched[slot] = false
		m.pstats.Wasted++
	}
	return nil
}

// asyncWriteBack queues the victim's record (a prefix of its slot
// buffer) for background write-back and patches a spare buffer into
// the slot. Blocks only when every spare is already in the write queue.
func (m *Manager) asyncWriteBack(victim, slot int) error {
	// Surface background write errors promptly rather than at the next
	// barrier.
	if err := m.pipe.err(); err != nil {
		return err
	}
	start := time.Now()
	spare, err := m.pipe.acquireSpare(m.ctx)
	wait := time.Since(start)
	m.pipeStats.StallTime += wait
	m.pipeStats.BufferWait += wait
	if err != nil {
		return fmt.Errorf("ooc: write-back abandoned: %w", err)
	}
	rec := m.takeRecord(victim, slot)
	m.slots[slot] = spare
	m.pipe.enqueueWrite(victim, rec, m.span)
	m.pipeStats.WritesQueued++
	return nil
}

// Flush writes every modified resident vector to the store (used before
// closing or when handing the store to another consumer). Under the async
// pipeline it is a full barrier: every in-flight fetch is joined and
// the write queue is drained first, so queued (older) write-backs land
// before the resident (newest) data below.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.drainPipeline(); err != nil {
		return err
	}
	for s, it := range m.slotItem {
		if it < 0 {
			continue
		}
		if !m.dirty[s] {
			m.stats.SkippedWrites++
			continue
		}
		if err := m.stall(func() error { return m.storeWrite(it, m.takeRecord(it, s)) }); err != nil {
			return err
		}
		m.stats.Writes++
		m.stats.BytesWritten += int64(m.lens[it]) * 8
		m.dirty[s] = false
	}
	return nil
}

// drainPipeline joins every in-flight fetch and waits for the write
// queue to empty. A no-op for synchronous managers.
func (m *Manager) drainPipeline() error {
	if m.pipe == nil {
		return nil
	}
	var first error
	for s := range m.inflight {
		if err := m.joinSlot(s); err != nil && first == nil {
			first = err
		}
	}
	if err := m.stall(m.pipe.barrier); err != nil && first == nil {
		first = err
	}
	return first
}

// Close drains the asynchronous pipeline and stops its goroutines: all
// queued write-backs reach the store (so the backing file is exactly
// as a synchronous run would have left it) and in-flight fetches
// complete. Resident vectors are NOT written back — call Flush first
// to checkpoint them. After Close the manager keeps working, but
// synchronously, and Resize is rejected from the first Close call
// onwards. For synchronous managers Close only latches that flag.
func (m *Manager) Close() error {
	m.closing.Store(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pipe == nil {
		return nil
	}
	first := m.drainPipeline()
	if err := m.stall(m.pipe.shutdown); err != nil && first == nil {
		first = err
	}
	// Preserve the background counters past the pipeline's death.
	m.pipeStats = m.pipelineStatsLocked()
	m.pipe = nil
	m.inflight = nil
	return first
}

// CheckInvariants validates the item/slot mapping consistency; tests
// call it after randomised operation sequences.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]int)
	for s, it := range m.slotItem {
		if it < 0 {
			continue
		}
		if prev, dup := seen[it]; dup {
			return fmt.Errorf("ooc: item %d resident in slots %d and %d", it, prev, s)
		}
		seen[it] = s
		if m.itemSlot[it] != s {
			return fmt.Errorf("ooc: slot %d holds item %d but itemSlot says %d", s, it, m.itemSlot[it])
		}
	}
	for it, s := range m.itemSlot {
		if s >= 0 && m.slotItem[s] != it {
			return fmt.Errorf("ooc: itemSlot[%d]=%d but slotItem[%d]=%d", it, s, s, m.slotItem[s])
		}
	}
	return nil
}
