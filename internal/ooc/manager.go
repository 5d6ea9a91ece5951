package ooc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"oocphylo/internal/obs"
	"oocphylo/internal/record"
)

// MinSlots is the paper's floor (§3.2, "we must ensure that m >= 3"):
// one newview needs its vector and two children resident, so the pool
// has room for three full-width buffers.
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
	// Slots is m: the pool holds Slots × VectorLen float64s of records
	// (see Manager). Values above NumVectors are capped (f = 1 holds
	// everything in RAM); values below MinSlots (when NumVectors allows)
	// are rejected.
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
}

// fetchWorkers is the number of background fetch goroutines. The
// engine stages one plan step ahead, and a step reads at most its two
// children, so two workers serve a step's stage-ins side by side.
const fetchWorkers = 2

// fetchQueue bounds the prefetches waiting for a fetch worker;
// Prefetch blocks when the queue is full.
const fetchQueue = 2 * fetchWorkers

// writeBuffers is how many full widths of evicted records, each in its
// own buffer, the asynchronous writer may hold outside the pool; an
// eviction blocks only when the records queued leave no room for its
// own. With prefix records the writer keeps up on average; what blocks
// is a burst of cheap newviews near the tips, each evicting a dirty
// vector, and four widths absorb it (on the benchmark's full traversals,
// 0.9–1.1 s of buffer wait per 100 ops with two, 0.3–0.4 s with four).
const writeBuffers = 4

// PipelineBytes is the heap the async pipeline keeps beside the slot
// pool: the records queued for the writer, at most writeBuffers × vecLen
// float64s. A pipelined run whose pool is sized from a byte limit pays
// for them before it buys slots (the paper's -L holds for the whole
// manager); at the MinSlots floor they come on top, as the floor itself
// may overrun a tiny limit.
func PipelineBytes(vecLen int) int64 { return writeBuffers * int64(vecLen) * 8 }

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
// the plf.VectorProvider contract over a RAM pool of Slots × VectorLen
// float64s and a backing Store. Vector/Prefetch/Flush/Close must come
// from a single caller (as the likelihood engine guarantees); with
// Config.Async the manager runs I/O goroutines internally, but all
// bookkeeping still happens on the single calling goroutine. The stats
// snapshots (Stats/PrefetchStats/PipelineStats) MAY be read from any
// goroutine — the debug endpoint samples them mid-run — so every public
// method takes the stats mutex, making each counter group a consistent
// snapshot rather than a torn read.
//
// The pool is a byte budget, the paper's -L: it holds records, not
// widths. A resident is charged its buffer's capacity — its record (see
// package record), or a full width while a write-intent access owns it
// — and the strategy evicts until the incoming charge fits (see settle
// and take). Under -kernel generic every record is full width: the pool
// is the paper's m slots, every decision the fixed-slot manager's.
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

	// nslots is m; budget is nslots × VectorLen float64s.
	nslots, budget int
	// slots is the resident table: entry s holds vector slotItem[s]
	// (-1 if empty) in buffer slots[s]. Filling the lowest empty entry
	// first keeps the order candidates reach the strategy in the
	// fixed-slot manager's.
	slots    [][]float64
	slotItem []int
	// itemSlot maps item -> entry, -1 if on "disk" (the paper's
	// itemvector: RAM address vs file offset; offsets here are implicit,
	// vector vi lives at file position vi).
	itemSlot []int
	// lens[vi] is the length of vector vi's record, VectorLen before
	// its first settle or write-back. A read of vi fills a buffer of
	// that length.
	lens []int
	// dirty marks entries written since fault-in; only those are
	// written back.
	dirty []bool
	// prefetched marks entries staged by Prefetch and not yet demanded.
	prefetched []bool
	// wide lists the vectors a write-intent access left unsettled.
	wide []int
	// held is the capacity of the resident buffers; free holds released
	// buffers, oldest first, freeLen theirs: held+freeLen ≤ budget after
	// every call, heldMax its peak. recycled holds, per capacity, those
	// given up (a sync.Pool alone loses them at each GC and under -race).
	held, freeLen, heldMax int
	free                   [][]float64
	recycled               map[int]*sync.Pool
	// candidates is scratch for building the evictable set per miss.
	candidates []int
	slotOf     []int // parallel scratch: entry of each candidate

	stats  Stats
	pstats PrefetchStats
	rstats ResizeStats

	// ctx, when set via SetContext, aborts the blocking edges of the
	// I/O path (full fetch queue, waits for the writer). Store
	// operations themselves always run to completion, so cancellation
	// can never leave a torn vector on disk.
	ctx context.Context
	// closing latches once Close has been entered; Resize refuses to
	// change the budget from then on.
	closing atomic.Bool

	// pipe is the async I/O pipeline (nil when running synchronously).
	// inflight tracks, per entry, the background fetch still filling it.
	pipe      *pipeline
	inflight  []*fetchReq
	pipeStats PipelineStats
}

// ErrAllPinned is returned when a miss cannot find an evictable slot
// because every resident vector is pinned — only possible if the caller
// pins more than Slots-1 vectors, which the likelihood engine's
// three-vector working set never does under m >= MinSlots.
var ErrAllPinned = errors.New("ooc: all resident vectors are pinned; cannot evict")

// NewManager validates cfg and sets up an empty pool of Slots ×
// VectorLen float64s, filled as vectors move in; under Config.Async
// the writer may hold PipelineBytes more. MemOverheadBytes reports that
// with the store's heap, so a caller enforcing -L charges both first.
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
	if err := validateSlots(cfg.Slots, cfg.NumVectors); err != nil {
		return nil, err
	}
	n := cfg.NumVectors // the table never holds more entries
	m := &Manager{
		cfg:        cfg,
		nslots:     cfg.Slots,
		budget:     cfg.Slots * cfg.VectorLen,
		slots:      make([][]float64, 0, n),
		slotItem:   make([]int, 0, n),
		itemSlot:   make([]int, n),
		lens:       make([]int, n),
		dirty:      make([]bool, 0, n),
		prefetched: make([]bool, 0, n),
		recycled:   make(map[int]*sync.Pool),
	}
	for i := range m.itemSlot {
		m.itemSlot[i] = -1
		m.lens[i] = cfg.VectorLen
	}
	if cfg.Async {
		m.pipe = newPipeline(cfg.Store, writeBuffers*cfg.VectorLen)
		m.inflight = make([]*fetchReq, 0, n)
		m.pipeStats.Enabled = true
	}
	return m, nil
}

// NumVectors implements plf.VectorProvider.
func (m *Manager) NumVectors() int { return m.cfg.NumVectors }

// VectorLen implements plf.VectorProvider.
func (m *Manager) VectorLen() int { return m.cfg.VectorLen }

// Slots returns m: the pool holds Slots() × VectorLen() float64s. Safe
// from any goroutine (Resize changes it at runtime).
func (m *Manager) Slots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nslots
}

// HeldBytes reports the bytes of the pool's residents and free list,
// now and at its peak after any call (noteHeld): at most the budget.
func (m *Manager) HeldBytes() (now, peak int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.held+m.freeLen) * 8, int64(m.heldMax) * 8
}

func (m *Manager) noteHeld() { m.heldMax = max(m.heldMax, m.held+m.freeLen) }

// SetContext attaches ctx to the manager's blocking I/O edges: waits
// on a full fetch queue and waits for queued write-backs to land abort
// with an error wrapping ctx.Err() once ctx is cancelled. Individual
// store reads/writes still run to completion — cancellation stops at
// operation boundaries, so the backing file never holds a torn vector
// — and Flush/Close remain usable after cancellation to persist
// residents for a checkpoint.
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

// unreadable applies the one rule for a read the store cannot serve —
// corrupt bytes, a transient I/O error, or the remote circuit open: the
// error is wrapped in a VectorReadError so the engine can recompute
// vector vi instead of failing the pass. Anything else (nil included)
// passes through.
func unreadable(vi int, err error) error {
	if err != nil && (IsCorruption(err) || IsTransient(err) || IsCircuitOpen(err)) {
		return &VectorReadError{Vi: vi, Err: err}
	}
	return err
}

// bytesLost reports whether a failed read says the stored bytes cannot
// be had, under the rule above. A write-intent access overwrites them
// unseen, so for it such a read counts as skipped instead of failing
// the computation.
func bytesLost(err error) bool {
	var re *VectorReadError
	return errors.As(err, &re)
}

// joinSlot waits for the background fetch still filling entry s (if
// any) and returns its error, under the same rule as a demand read. The
// wait is charged as stall time. A successful join is where a
// background prefetch lands in the ledgers: Reads/BytesRead must
// reflect fetches that completed, not fetches that were merely
// enqueued, so that a failed fetch leaves the counters exactly as a
// failed synchronous prefetch would.
func (m *Manager) joinSlot(s int) error {
	f := m.inflight[s]
	if f == nil {
		return nil
	}
	m.inflight[s] = nil
	start := time.Now()
	<-f.done
	wait := time.Since(start)
	vi, n, ferr := f.vi, len(f.dst), f.err
	m.pipe.putFetch(f)
	m.pipeStats.StallTime += wait
	m.pipeStats.JoinWait += wait
	if ferr == nil {
		m.pstats.Reads++
		m.stats.BytesRead += int64(n) * 8
	}
	m.spanEvent("ooc.join_wait", vi, s, start, wait)
	return unreadable(vi, ferr)
}

// joinOrDrop joins entry s's stage-in, if any, and on failure drops the
// vector: its buffer holds garbage, so it must not stay resident, as a
// failed synchronous prefetch leaves no resident. demanded says the
// join is Vector's, whose caller wanted the staged vector; any other
// drop is an eviction or a shrink, which would have written the garbage
// back over the store's authoritative copy, and is ledgered as such.
func (m *Manager) joinOrDrop(s int, demanded bool) error {
	err := m.joinSlot(s)
	if err == nil {
		return nil
	}
	if IsCorruption(err) {
		m.pipeStats.CorruptReads++
	}
	if !demanded {
		m.pipeStats.DroppedWritebacks++
		if m.prefetched[s] {
			m.pstats.Wasted++
		}
	}
	m.release(m.unmap(s))
	return err
}

// demandRead reads vi into dst on the compute thread. Under the async
// pipeline a record still with the writer serves it first
// (read-after-write). What the store cannot serve comes back as
// unreadable.
func (m *Manager) demandRead(vi int, dst []float64) error {
	if m.pipe != nil && m.pipe.readPending(vi, dst) {
		return nil
	}
	return unreadable(vi, m.cfg.Store.ReadVector(vi, dst))
}

// takeRecord is the part of entry s that vector vi's write-back stores,
// which becomes vi's record: the prefix the engine stamped into a wide
// buffer's last word, or the whole buffer (package record).
func (m *Manager) takeRecord(vi, s int) []float64 {
	m.lens[vi] = record.Len(m.slots[s])
	return m.slots[s][:m.lens[vi]]
}

// take returns an uncharged buffer of n float64s: a free one of that
// capacity, else (the oldest free ones going until it fits the budget)
// a recycled one, else a new one. Records recur at the same lengths, so
// a pool that thrashes still rarely allocates.
func (m *Manager) take(n int) []float64 {
	for i := len(m.free) - 1; i >= 0; i-- {
		if b := m.free[i]; cap(b) == n {
			m.freeLen -= n
			m.free = slices.Delete(m.free, i, i+1)
			return b
		}
	}
	m.trim(n)
	if p := m.recycled[n]; p != nil {
		if x := p.Get(); x != nil {
			return unsafe.Slice(x.(*float64), n)
		}
	}
	return make([]float64, n)
}

// release puts an uncharged buffer on the free list, then trims it.
func (m *Manager) release(b []float64) {
	m.free = append(m.free, b[:cap(b)])
	m.freeLen += cap(b)
	m.trim(0)
}

// trim recycles the oldest free buffers until extra more fit.
func (m *Manager) trim(extra int) {
	k := 0
	for ; k < len(m.free) && m.held+m.freeLen+extra > m.budget; k++ {
		m.freeLen -= cap(m.free[k])
		m.recycle(m.free[k])
	}
	m.free = slices.Delete(m.free, 0, k)
}

// recycle gives b up to a sync.Pool, where the garbage collector frees
// it unless a take of its capacity comes first.
func (m *Manager) recycle(b []float64) {
	p := m.recycled[cap(b)]
	if p == nil {
		p = new(sync.Pool)
		m.recycled[cap(b)] = p
	}
	p.Put(unsafe.SliceData(b))
}

// place charges buf as vi's in the lowest empty (or a new) entry.
func (m *Manager) place(vi int, buf []float64) int {
	s := slices.Index(m.slotItem, -1)
	if s < 0 {
		s = len(m.slots)
		m.slots, m.slotItem = append(m.slots, nil), append(m.slotItem, -1)
		m.dirty, m.prefetched = append(m.dirty, false), append(m.prefetched, false)
		if m.pipe != nil {
			m.inflight = append(m.inflight, nil)
		}
	}
	m.slots[s], m.slotItem[s], m.itemSlot[vi] = buf, vi, s
	m.held += cap(buf)
	return s
}

// unmap empties entry s and returns its buffer, no longer charged.
func (m *Manager) unmap(s int) []float64 {
	vi, buf := m.slotItem[s], m.slots[s]
	m.itemSlot[vi] = -1
	m.slotItem[s] = -1
	m.slots[s] = nil
	m.dirty[s] = false
	m.prefetched[s] = false
	m.held -= cap(buf)
	m.wide = slices.DeleteFunc(m.wide, func(u int) bool { return u == vi })
	return buf
}

// settleWide settles the wide vectors whose slices the call ends: all
// it neither pins nor, when keep, names as vi.
func (m *Manager) settleWide(vi int, keep bool, pinned []int) {
	k := 0
	for _, u := range m.wide {
		if (keep && u == vi) || slices.Contains(pinned, u) {
			m.wide[k] = u
			k++
		} else {
			m.settle(u)
		}
	}
	m.wide = m.wide[:k]
}

// settle moves the record u's last write stamped (package record) from
// its wide buffer into a buffer of its length; a full-width one stays.
func (m *Manager) settle(u int) {
	s := m.itemSlot[u]
	buf := m.slots[s]
	n := record.Len(buf)
	m.lens[u] = n
	if n == cap(buf) {
		return
	}
	m.held -= cap(buf)
	m.slots[s] = m.take(n)
	copy(m.slots[s], buf)
	m.held += n
	m.release(buf)
}

// widen swaps resident vi's record (about to be overwritten) in entry s
// for the full-width buffer a write-intent access reserves.
func (m *Manager) widen(vi, s int, pinned []int) error {
	old := m.slots[s]
	if cap(old) == m.cfg.VectorLen {
		return nil
	}
	if err := m.makeRoom(m.cfg.VectorLen-cap(old), vi, pinned); err != nil {
		return err
	}
	m.held -= cap(old)
	m.release(old)
	m.slots[s] = m.take(m.cfg.VectorLen)
	m.held += m.cfg.VectorLen
	return nil
}

// Resident reports whether vector vi is currently in the RAM pool.
func (m *Manager) Resident(vi int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return vi >= 0 && vi < len(m.itemSlot) && m.itemSlot[vi] >= 0
}

// MemOverheadBytes reports the heap held beside the pool — what the
// backing store keeps on the manager's behalf (cache-tier indexes,
// in-flight remote buffers) and, under Config.Async, the records queued
// for the writer (PipelineBytes) — so a resize to a byte grant
// (analysis.Run.Resize) charges it against the same budget as the pool,
// as analysis.Open's sizing does. Zero for a synchronous manager over a
// plain file or memory store.
func (m *Manager) MemOverheadBytes() int64 {
	ov := StoreMemOverhead(m.cfg.Store)
	if m.cfg.Async {
		ov += PipelineBytes(m.cfg.VectorLen)
	}
	return ov
}

// Vector implements plf.VectorProvider: the paper's getxvector(). It
// returns the RAM address of vector vi, swapping it in if necessary.
// write declares that the caller overwrites the entire vector before
// reading it, enabling read skipping, and gets a full-width buffer; a
// read gets vi's record, which may be shorter. pinned lists vector
// indices that must not be evicted (or moved) by this call.
func (m *Manager) Vector(vi int, write bool, pinned ...int) ([]float64, error) {
	if vi < 0 || vi >= m.cfg.NumVectors {
		return nil, fmt.Errorf("ooc: vector index %d out of range [0, %d)", vi, m.cfg.NumVectors)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.noteHeld()
	m.settleWide(vi, write, pinned)
	m.stats.Requests++
	m.cfg.Strategy.Touch(vi)
	if s := m.itemSlot[vi]; s >= 0 {
		joinFailed := false
		if m.pipe != nil && m.inflight[s] != nil {
			// The prefetch that staged vi is still in flight: join it
			// rather than re-reading (this wait is the residue of
			// latency the pipeline could not hide).
			m.pipeStats.JoinedFetches++
			if err := m.joinOrDrop(s, true); err != nil {
				// A failed join must not be ledgered as a hit.
				if !write || !bytesLost(err) {
					return nil, err
				}
				// Write-intent access to a lost staged copy: fall
				// through to the miss path (see bytesLost).
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
				if err := m.widen(vi, s, pinned); err != nil {
					return nil, err
				}
				m.markWide(vi)
			}
			return m.slots[s], nil
		}
	}
	m.stats.Misses++
	var missStart time.Time
	if m.mx.on || m.span != nil {
		missStart = time.Now()
	}

	n := m.lens[vi]
	if write {
		n = m.cfg.VectorLen
	}
	if err := m.makeRoom(n, vi, pinned); err != nil {
		return nil, err
	}
	buf := m.take(n)
	// Swap in.
	skipRead := write && m.cfg.ReadSkipping
	if skipRead {
		m.stats.SkippedReads++
	} else if err := m.stall(func() error { return m.demandRead(vi, buf[:m.lens[vi]]) }); err != nil {
		if IsCorruption(err) {
			m.pipeStats.CorruptReads++
		}
		if !write || !bytesLost(err) {
			m.release(buf)
			return nil, err
		}
		// The stored payload is lost, but the caller promised to
		// overwrite the entire vector before reading it (bytesLost).
	} else {
		m.stats.Reads++
		m.stats.BytesRead += int64(m.lens[vi]) * 8
	}
	slot := m.place(vi, buf)
	m.dirty[slot] = write
	if write {
		m.markWide(vi)
	}
	if m.mx.on || m.span != nil {
		dur := time.Since(missStart)
		m.mx.faultIn.Observe(dur.Seconds())
		m.spanEvent("ooc.fault_in", vi, slot, missStart, dur)
	}
	return buf, nil
}

func (m *Manager) markWide(vi int) {
	if !slices.Contains(m.wide, vi) {
		m.wide = append(m.wide, vi)
	}
}

// makeRoom evicts the strategy's victims, never requested or a pinned
// vector, until n more float64s fit the budget beside the residents.
func (m *Manager) makeRoom(n, requested int, pinned []int) error {
	for m.held+n > m.budget {
		victim, slot, err := m.pickVictim(requested, pinned)
		if err != nil {
			return err
		}
		if err := m.evict(victim, slot); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim chooses an evictable resident via the replacement
// strategy: the candidate set is every resident item minus requested
// and pins, in table order. requested is the item the eviction makes
// room for, or -1 when the pool itself is shrinking (Resize). Callers
// hold m.mu.
func (m *Manager) pickVictim(requested int, pinned []int) (victim, slot int, err error) {
	m.candidates = m.candidates[:0]
	m.slotOf = m.slotOf[:0]
	for s, it := range m.slotItem {
		if it < 0 || it == requested || slices.Contains(pinned, it) {
			continue
		}
		m.candidates = append(m.candidates, it)
		m.slotOf = append(m.slotOf, s)
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
// frees its entry. Under the async pipeline the record's own buffer is
// queued to the writer, so the call returns without waiting for the
// store; a synchronous write-back frees the buffer for reuse.
func (m *Manager) evict(victim, slot int) error {
	// The victim's own stage-in may still be in flight; its buffer
	// cannot be written back or reused until the read completes, and a
	// failed one is dropped instead — a later demand access faults the
	// vector in again and surfaces the error if it persists.
	if m.pipe != nil && m.joinOrDrop(slot, false) != nil {
		m.mx.evictions.Inc()
		return nil
	}
	// A clean entry's content matches the store (it was faulted in by a
	// read and never modified), so its write-back is skipped.
	queued := false
	if m.dirty[slot] {
		var ws time.Time
		if m.span != nil || (m.mx.on && m.pipe == nil) {
			ws = time.Now()
		}
		rec := m.takeRecord(victim, slot)
		if m.pipe != nil {
			if err := m.asyncWriteBack(victim, rec); err != nil {
				return err
			}
			queued = true
			if m.span != nil {
				// Async: the span covers only the hand-off (waiting for
				// the writer); the store write itself is the writer's
				// pipe.write_back.
				m.spanEvent("ooc.evict", victim, slot, ws, time.Since(ws))
			}
		} else {
			if err := m.stall(func() error { return m.cfg.Store.WriteVector(victim, rec) }); err != nil {
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
	if m.prefetched[slot] {
		m.pstats.Wasted++
	}
	if buf := m.unmap(slot); !queued {
		m.release(buf)
	}
	m.releaseReturned()
	return nil
}

// asyncWriteBack hands the victim's record, buffer and all, to the
// writer, first taking queued writes back until it fits beside the rest
// (their buffers go to the free list after the victim has left, see
// releaseReturned).
func (m *Manager) asyncWriteBack(victim int, rec []float64) error {
	// Surface background write errors promptly rather than at the next
	// barrier.
	if err := m.pipe.err(); err != nil {
		return err
	}
	start := time.Now()
	err := m.pipe.reclaimFor(m.ctx, cap(rec))
	wait := time.Since(start)
	m.pipeStats.StallTime += wait
	m.pipeStats.BufferWait += wait
	if err != nil {
		return fmt.Errorf("ooc: write-back abandoned: %w", err)
	}
	m.pipe.enqueueWrite(victim, rec, m.span)
	m.pipeStats.WritesQueued++
	return nil
}

// releaseReturned frees the buffers of the writes taken back.
func (m *Manager) releaseReturned() {
	if m.pipe == nil {
		return
	}
	for _, b := range m.pipe.returned {
		m.release(b)
	}
	clear(m.pipe.returned)
	m.pipe.returned = m.pipe.returned[:0]
}

// Flush writes every modified resident vector to the store (used before
// closing or when handing the store to another consumer). Under the async
// pipeline it is a full barrier: every in-flight fetch is joined and
// the write queue is drained first, so queued (older) write-backs land
// before the resident (newest) data below.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.noteHeld()
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
		rec := m.takeRecord(it, s)
		if err := m.stall(func() error { return m.cfg.Store.WriteVector(it, rec) }); err != nil {
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
	m.releaseReturned()
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

// CheckInvariants validates the item/entry mapping and the pool's
// charge; tests call it after randomised operation sequences.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	held, free := 0, 0
	for s, it := range m.slotItem {
		switch {
		case it < 0:
		case m.itemSlot[it] != s:
			return fmt.Errorf("ooc: entry %d holds item %d but itemSlot says %d", s, it, m.itemSlot[it])
		case slices.Contains(m.wide, it) && cap(m.slots[s]) != m.cfg.VectorLen,
			!slices.Contains(m.wide, it) && len(m.slots[s]) != m.lens[it]:
			return fmt.Errorf("ooc: vector %d holds %d float64s of a %d-float record", it, len(m.slots[s]), m.lens[it])
		default:
			held += cap(m.slots[s])
		}
	}
	for it, s := range m.itemSlot {
		if s >= 0 && (s >= len(m.slotItem) || m.slotItem[s] != it) {
			return fmt.Errorf("ooc: itemSlot[%d]=%d does not hold it", it, s)
		}
	}
	for _, b := range m.free {
		free += cap(b)
	}
	if held != m.held || free != m.freeLen || held+free > m.budget {
		return fmt.Errorf("ooc: %d held and %d free (ledger %d, %d) against a budget of %d",
			held, free, m.held, m.freeLen, m.budget)
	}
	return nil
}
