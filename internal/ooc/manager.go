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

	// Async is ignored: every manager runs the background I/O pipeline
	// (see pipeline.go). It stays for callers that still set it, the
	// benchmark harness among them.
	Async bool
}

// writeBuffers is how many full widths of evicted records, each in its
// own buffer, the writer may hold outside the pool; an
// eviction blocks only when the records queued leave no room for its
// own. With prefix records the writer keeps up on average; what blocks
// is a burst of cheap newviews near the tips, each evicting a dirty
// vector, and four widths absorb it (on the benchmark's full traversals,
// 0.9–1.1 s of buffer wait per 100 ops with two, 0.3–0.4 s with four).
const writeBuffers = 4

// PipelineBytes is the heap the pipeline keeps beside the slot pool:
// the records queued for the writer, at most writeBuffers × vecLen
// float64s. A run whose pool is sized from a byte limit pays for them
// before it buys slots (the paper's -L holds for the whole manager); at
// the MinSlots floor they come on top, as the floor itself may overrun
// a tiny limit.
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

// vecEntry is the manager's table entry for one vector, 8 bytes: n is the
// length of its record in float64s (VectorLen before its first settle
// or write-back) and sum the CRC-32C of the copy the store holds. The
// stored bit of n is set once a write-back of the vector has been
// recorded; until then a read is taken as-is (a fresh medium reads
// zeros). The manager reads a vector only at the length it recorded,
// so a record of another length is never read.
type vecEntry struct{ n, sum uint32 }

// stored marks, in vecEntry.n, that the store holds a copy of the vector.
const stored = 1 << 31

// length is the record's length in float64s.
func (e vecEntry) length() int { return int(e.n &^ stored) }

// readChecked reads vector vi from s into dst and checks it against
// vi's entry e.
func readChecked(s Store, vi int, dst []float64, e vecEntry) error {
	if err := s.ReadVector(vi, dst); err != nil || e.n&stored == 0 {
		return err
	}
	if got := vectorChecksum(dst); got != e.sum {
		return &CorruptionError{Vector: vi, Want: e.sum, Got: got}
	}
	return nil
}

// Manager is the out-of-core ancestral-vector manager: it implements
// the plf.VectorProvider contract over a RAM pool of Slots × VectorLen
// float64s and a backing Store. Vector/Flush/Close must come from a
// single caller (as the likelihood engine guarantees); the manager runs
// one write-back goroutine internally (see pipeline.go), but all
// bookkeeping still happens on the single calling goroutine. The stats
// snapshots (Stats/PipelineStats/ResizeStats) MAY be read from any
// goroutine — the debug endpoint samples them mid-run — so every public
// method takes the mutex, and each snapshot, read under it, is a
// consistent one rather than a torn read.
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
	// c holds the manager's counts, each one counter (see obs.go); mx
	// the instruments only a registry gives it. The zero mx means
	// uninstrumented: every obs call on it is a nil-check no-op and no
	// clock is read.
	c  counts
	mx managerObs
	// span is the request-scoped tracing span SetContext found in its
	// context; fault-ins and evictions are emitted under it (nil when
	// untraced).
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
	// table[vi] is vector vi's entry: its record's length, which a read
	// of vi fills, and the checksum every read of it from the store is
	// checked against (see vecEntry). Only the compute thread touches it.
	table []vecEntry
	// dirty marks entries written since fault-in; only those are
	// written back.
	dirty []bool
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

	// ctx, when set via SetContext, aborts the blocking edge of the
	// I/O path, waits for the writer. Store operations themselves always
	// run to completion, so cancellation can never leave a torn vector
	// on disk.
	ctx context.Context
	// closing latches once Close has been entered; every operation but
	// the stats getters returns ErrManagerClosing from then on.
	closing atomic.Bool

	// pipe is the write-back pipeline. stallTime and bufferWait total
	// the compute thread's waits on it (PipelineStats).
	pipe                  *pipeline
	stallTime, bufferWait time.Duration
}

// ErrAllPinned is returned when a miss cannot find an evictable slot
// because every resident vector is pinned — only possible if the caller
// pins more than Slots-1 vectors, which the likelihood engine's
// three-vector working set never does under m >= MinSlots.
var ErrAllPinned = errors.New("ooc: all resident vectors are pinned; cannot evict")

// NewManager validates cfg, sets up an empty pool of Slots × VectorLen
// float64s, filled as vectors move in, and starts the pipeline, whose
// writer may hold PipelineBytes more. MemOverheadBytes reports that
// with the store's heap, so a caller enforcing -L charges both first.
// Close the manager to drain the pipeline and stop its writer.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.NumVectors < 0 || cfg.VectorLen <= 0 || cfg.VectorLen >= stored {
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
		cfg:      cfg,
		nslots:   cfg.Slots,
		budget:   cfg.Slots * cfg.VectorLen,
		slots:    make([][]float64, 0, n),
		slotItem: make([]int, 0, n),
		itemSlot: make([]int, n),
		table:    make([]vecEntry, n),
		dirty:    make([]bool, 0, n),
		recycled: make(map[int]*sync.Pool),
	}
	for i := range m.itemSlot {
		m.itemSlot[i] = -1
		m.table[i].n = uint32(cfg.VectorLen)
	}
	m.pipe = newPipeline(cfg.Store, writeBuffers*cfg.VectorLen, m.table)
	for _, c := range m.counters() {
		*c.c = new(obs.Counter)
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

// SetContext attaches ctx to the manager's blocking I/O edge: a wait
// for queued write-backs to land aborts with an error wrapping
// ctx.Err() once ctx is cancelled. Individual store reads/writes still
// run to completion — cancellation stops at operation boundaries, so
// the backing file never holds a torn vector — and Flush/Close remain
// usable after cancellation to persist residents for a checkpoint.
// Must be called from the single API goroutine; nil restores the
// default (never cancelled). The span ctx carries, if any, attributes
// subsequent activity: fault-in and eviction child spans, and the
// write-backs queued meanwhile.
func (m *Manager) SetContext(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctx = ctx
	m.span = obs.SpanFromContext(ctx)
}

// Stats returns the access counters. Safe from any goroutine: they
// move only under the mutex, so the copy is not torn mid-operation.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.c
	return Stats{
		Requests: c.requests.Value(), Hits: c.hits.Value(), Misses: c.misses.Value(),
		Reads: c.reads.Value(), SkippedReads: c.skippedReads.Value(),
		Writes: c.writes.Value(), SkippedWrites: c.skippedWrites.Value(),
		BytesRead: c.bytesRead.Value(), BytesWritten: c.bytesWritten.Value(),
	}
}

// PipelineStats returns the I/O pipeline counters. Safe from any
// goroutine, before and after Close. The writer counts
// OverlappedBytes as its writes land, so a snapshot taken mid-run may
// lag the writes queued; after Close none is in flight.
func (m *Manager) PipelineStats() PipelineStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pipe
	return PipelineStats{
		Enabled:         true,
		WritesQueued:    m.c.writesQueued.Value(),
		WriteQueueHits:  p.wqHits.Value(),
		OverlappedBytes: p.overlapped.Value(),
		StallTime:       m.stallTime,
		BufferWait:      m.bufferWait,
		QueueDepthMax:   p.qdepth.Max(),
		CorruptReads:    m.c.corruptReads.Value(),
	}
}

// stall runs f on the compute thread and charges its duration to the
// pipeline's stall ledger — the time compute was blocked on I/O.
func (m *Manager) stall(f func() error) error {
	start := time.Now()
	err := f()
	m.addStall(time.Since(start))
	return err
}

// addStall adds d to the stall ledger and its gauge.
func (m *Manager) addStall(d time.Duration) {
	m.stallTime += d
	m.mx.stall.Set(m.stallTime.Seconds())
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

// demandRead reads vi into dst on the compute thread and checks it
// against vi's entry, counting a mismatch. A record still with the
// writer serves it first (read-after-write). What the store cannot
// serve comes back as unreadable.
func (m *Manager) demandRead(vi int, dst []float64) error {
	if m.pipe.readPending(vi, dst) {
		return nil
	}
	err := readChecked(m.cfg.Store, vi, dst, m.table[vi])
	if err != nil && IsCorruption(err) {
		m.c.corruptReads.Inc()
	}
	return unreadable(vi, err)
}

// takeRecord is the part of entry s that vector vi's write-back stores,
// which becomes vi's record: the prefix the engine stamped into a wide
// buffer's last word, or the whole buffer (package record).
func (m *Manager) takeRecord(vi, s int) []float64 {
	n := record.Len(m.slots[s])
	m.setLen(vi, n)
	return m.slots[s][:n]
}

// setLen records n as the length of vi's record, keeping its checksum.
func (m *Manager) setLen(vi, n int) { m.table[vi].n = m.table[vi].n&stored | uint32(n) }

// writeBack stores rec as vi's record on the compute thread (Flush's
// write of a resident), then records its entry: the checksum is the payload's, the write's intent,
// so a torn write underneath is caught by the next read.
func (m *Manager) writeBack(vi int, rec []float64) error {
	if err := m.cfg.Store.WriteVector(vi, rec); err != nil {
		return err
	}
	m.table[vi] = vecEntry{n: uint32(len(rec)) | stored, sum: vectorChecksum(rec)}
	return nil
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
		m.dirty = append(m.dirty, false)
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
	m.setLen(u, n)
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
// in-flight remote buffers) and the records queued for the writer
// (PipelineBytes) — so a resize to a byte grant (analysis.Run.Resize)
// charges it against the same budget as the pool, as analysis.Open's
// sizing does.
func (m *Manager) MemOverheadBytes() int64 {
	return StoreMemOverhead(m.cfg.Store) + PipelineBytes(m.cfg.VectorLen)
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
	if m.closing.Load() {
		return nil, ErrManagerClosing
	}
	defer m.noteHeld()
	m.settleWide(vi, write, pinned)
	m.c.requests.Inc()
	m.cfg.Strategy.Touch(vi)
	if s := m.itemSlot[vi]; s >= 0 {
		m.c.hits.Inc()
		if write {
			m.dirty[s] = true
			if err := m.widen(vi, s, pinned); err != nil {
				return nil, err
			}
			m.markWide(vi)
		}
		return m.slots[s], nil
	}
	m.c.misses.Inc()
	var missStart time.Time
	if m.mx.on || m.span != nil {
		missStart = time.Now()
	}

	n := m.table[vi].length()
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
		m.c.skippedReads.Inc()
	} else if err := m.stall(func() error { return m.demandRead(vi, buf[:m.table[vi].length()]) }); err != nil {
		if !write || !bytesLost(err) {
			m.release(buf)
			return nil, err
		}
		// The stored payload is lost, but the caller promised to
		// overwrite the entire vector before reading it (bytesLost).
	} else {
		m.c.reads.Inc()
		m.c.bytesRead.Add(int64(m.table[vi].length()) * 8)
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
// frees its entry. The record's own buffer is queued to the writer, so
// the call returns without waiting for the store.
func (m *Manager) evict(victim, slot int) error {
	// A clean entry's content matches the store (it was faulted in by a
	// read and never modified), so its write-back is skipped.
	queued := m.dirty[slot]
	if queued {
		var ws time.Time
		if m.span != nil {
			ws = time.Now()
		}
		rec := m.takeRecord(victim, slot)
		if err := m.queueWriteBack(victim, rec); err != nil {
			return err
		}
		if m.span != nil {
			// The span covers only the hand-off (waiting for the
			// writer); the store write itself is the writer's
			// pipe.write_back.
			m.spanEvent("ooc.evict", victim, slot, ws, time.Since(ws))
		}
		m.c.writes.Inc()
		m.c.bytesWritten.Add(int64(len(rec)) * 8)
	} else {
		m.c.skippedWrites.Inc()
	}
	m.mx.evictions.Inc()
	if buf := m.unmap(slot); !queued {
		m.release(buf)
	}
	m.releaseReturned()
	return nil
}

// queueWriteBack hands the victim's record, buffer and all, to the
// writer, first taking queued writes back until it fits beside the rest
// (their buffers go to the free list after the victim has left, see
// releaseReturned).
func (m *Manager) queueWriteBack(victim int, rec []float64) error {
	// Surface background write errors promptly rather than at the next
	// barrier.
	if err := m.pipe.err(); err != nil {
		return err
	}
	start := time.Now()
	err := m.pipe.reclaimFor(m.ctx, cap(rec))
	wait := time.Since(start)
	m.addStall(wait)
	m.bufferWait += wait
	m.mx.bufWait.Set(m.bufferWait.Seconds())
	if err != nil {
		return fmt.Errorf("ooc: write-back abandoned: %w", err)
	}
	m.pipe.enqueueWrite(victim, rec, m.span)
	m.c.writesQueued.Inc()
	return nil
}

// releaseReturned frees the buffers of the writes taken back.
func (m *Manager) releaseReturned() {
	for _, b := range m.pipe.returned {
		m.release(b)
	}
	clear(m.pipe.returned)
	m.pipe.returned = m.pipe.returned[:0]
}

// Flush writes every modified resident vector to the store (used before
// closing or when handing the store to another consumer). It is a full
// barrier: the write queue is drained first, so queued (older)
// write-backs land before the resident (newest) data below.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing.Load() {
		return ErrManagerClosing
	}
	defer m.noteHeld()
	if err := m.drainPipeline(); err != nil {
		return err
	}
	for s, it := range m.slotItem {
		if it < 0 {
			continue
		}
		if !m.dirty[s] {
			m.c.skippedWrites.Inc()
			continue
		}
		rec := m.takeRecord(it, s)
		if err := m.stall(func() error { return m.writeBack(it, rec) }); err != nil {
			return err
		}
		m.c.writes.Inc()
		m.c.bytesWritten.Add(int64(len(rec)) * 8)
		m.dirty[s] = false
	}
	return nil
}

// drainPipeline waits for the write queue to empty, returning the
// writer's first error.
func (m *Manager) drainPipeline() error {
	err := m.stall(m.pipe.barrier)
	m.releaseReturned()
	return err
}

// Close drains the pipeline and stops its writer: all queued
// write-backs reach the store. Resident vectors are NOT written back —
// call Flush first to checkpoint them. From the first Close call
// onwards Vector, Flush and Resize return ErrManagerClosing; the stats
// getters keep answering.
func (m *Manager) Close() error {
	m.closing.Store(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.drainPipeline()
	if serr := m.stall(m.pipe.shutdown); err == nil {
		err = serr
	}
	return err
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
			!slices.Contains(m.wide, it) && len(m.slots[s]) != m.table[it].length():
			return fmt.Errorf("ooc: vector %d holds %d float64s of a %d-float record", it, len(m.slots[s]), m.table[it].length())
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
