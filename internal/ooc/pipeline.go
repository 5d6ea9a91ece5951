package ooc

// The I/O pipeline — the paper's §5 future work ("we will assess if
// pre-fetching can be deployed by means of a prefetch thread") made
// real. The paper's manager interleaves compute and I/O on one thread:
// every demand miss blocks on Store.ReadVector and every eviction
// blocks on Store.WriteVector. The pipeline moves both off the compute
// thread; demand reads and Flush's writes of residents stay on it:
//
//   - Prefetch stage-ins are executed by a pool of fetch worker
//     goroutines fed from a bounded queue. The slot is mapped (and the
//     replacement strategy updated) on the compute thread, so every
//     *decision* is made there in call order; only the byte transfer
//     overlaps compute. A demand access that arrives before the fetch
//     completes joins the in-flight read instead of re-issuing it.
//   - Evictions hand the victim's record — its own buffer, which the
//     writer now owns — to a single write-back goroutine and return
//     immediately. The compute thread blocks only when the records
//     still queued leave no room for this one within PipelineBytes;
//     it then takes buffers back, oldest write first, into the pool.
//
// Correctness bar: the pipeline may change WHEN I/O happens, never
// WHAT is computed. All slot mapping, eviction choices, strategy
// bookkeeping and Stats counters run on the compute goroutine, so
// log-likelihoods and miss accounting do not depend on the workers'
// timing. Consistency rules:
//
//   - Read-after-write: a read of a vector whose write-back buffer the
//     compute thread has not taken back is served from that buffer
//     (readPending), never from a possibly stale store region. The
//     buffer stays readable until it is taken back, not just until its
//     write lands, and it is taken back only when the queued bytes
//     demand it or at a barrier, so which reads it serves depends on the
//     order and sizes of evictions alone, never on the writer's timing;
//     a prefetch of such a vector is served the same way, on the compute
//     thread.
//   - Write-write: a single writer goroutine drains the queue FIFO, so
//     two queued writes to the same vector land in issue order.
//   - Fetch-evict: evicting a slot whose stage-in is in flight first
//     joins the fetch, so a buffer is never written back (or reused)
//     while a worker is still filling it.
//   - Flush/Close barrier: Flush joins every in-flight fetch, dropping
//     the vectors whose read failed, and drains the write queue before
//     writing residents, so older write-backs land before newer ones.
//
// The Manager remains single-caller: the pipeline adds goroutines
// *inside* the manager, not concurrency on its API.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
)

// PipelineStats counts the pipeline's activity. All
// quantities are maintained on the compute thread or read atomically;
// read them via Manager.PipelineStats after the workload (they are a
// snapshot, not synchronized with in-flight work).
type PipelineStats struct {
	// Enabled is always true: every manager is pipelined. It stays for
	// callers that still read it, the benchmark harness among them.
	Enabled bool
	// FetchesQueued and WritesQueued count background operations
	// handed to the workers.
	FetchesQueued, WritesQueued int64
	// JoinedFetches counts demand accesses that waited on an in-flight
	// background fetch instead of issuing their own read.
	JoinedFetches int64
	// WriteQueueHits counts reads served from a pending write-back
	// buffer (the read-after-write consistency path).
	WriteQueueHits int64
	// OverlappedBytes totals the bytes moved by background goroutines
	// rather than on the compute thread.
	OverlappedBytes int64
	// StallTime is the total time the compute thread spent blocked on
	// I/O: store calls on the demand path, waits for in-flight fetches
	// (JoinWait), waits for queued write-backs to land (BufferWait) and
	// Flush/Close barriers.
	StallTime time.Duration
	// JoinWait is the portion of StallTime spent joining fetches.
	JoinWait time.Duration
	// BufferWait is the portion spent waiting for queued writes to
	// land so an evicted record fits beside them.
	BufferWait time.Duration
	// QueueDepthMax is the high-water mark of simultaneously queued
	// background operations (fetches + writes).
	QueueDepthMax int64
	// CorruptReads counts checksum-verification failures surfaced to
	// the manager (each one either aborted the access or triggered a
	// recompute upstream).
	CorruptReads int64
	// DroppedWritebacks counts evictions that discarded the slot
	// instead of writing it back because the victim's stage-in never
	// delivered valid data (writing the buffer back would have
	// clobbered the store's authoritative copy).
	DroppedWritebacks int64
}

// fetchReq is one background stage-in: the worker fills dst with
// vector vi, checks it against want, vi's table entry at enqueue, and
// signals done. The entry owning dst is reserved by the compute thread
// before the request is queued and is not touched again until the
// request is joined and recycled.
type fetchReq struct {
	vi   int
	dst  []float64
	want vecEntry
	// span is the manager's span at enqueue; the worker's pipe.fetch
	// span is emitted under it (nil when untraced).
	span *obs.Span
	err  error
	done chan struct{} // one signal per use (capacity 1)
}

// writeReq is one queued write-back. buf is the vector's record, in
// its pool buffer, which readers can copy from until the compute thread
// takes the request back (reclaimOldest); the writer hashes it into sum
// before it signals done.
type writeReq struct {
	vi  int
	buf []float64
	sum uint32
	// span, as in fetchReq, parents the writer's pipe.write_back span.
	span *obs.Span
	done chan struct{}
}

// pipeline owns the background goroutines and the queues between them
// and the compute thread.
type pipeline struct {
	store Store
	table []vecEntry // the manager's, written by reclaimOldest

	fetchCh chan *fetchReq
	writeCh chan *writeReq

	// The rest of the block is the compute thread's. queue holds the
	// writes not taken back, oldest first; queued is their capacity in
	// float64s. pending maps a vector to its newest queued write.
	// returned holds taken-back buffers for the manager's free list;
	// fetchFree and writeFree hold requests for reuse.
	queue            []*writeReq
	queued, capacity int
	pending          map[int]*writeReq
	returned         [][]float64
	fetchFree        []*fetchReq
	writeFree        []*writeReq

	mu       sync.Mutex
	firstErr error

	depth      atomic.Int64
	depthMax   atomic.Int64
	overlapped atomic.Int64
	wqHits     atomic.Int64

	// Observability instruments; all nil (and on false) when
	// uninstrumented. Written once by instrument() on the compute thread
	// BEFORE the first request is enqueued; workers read them only while
	// servicing a request, so the channel send/receive provides the
	// happens-before edge.
	on       bool
	fetchLat *obs.Histogram
	writeLat *obs.Histogram
	qdepth   *obs.Gauge

	wg   sync.WaitGroup
	stop sync.Once
}

// writerLane is the write-back goroutine's obs.LaneAttr. The compute
// thread is lane 0 and fetch workers are lanes 1..fetchWorkers.
const writerLane = fetchWorkers + 1

// writeQueue bounds the channel to the writer; the byte cap
// (capacity) is what normally bounds the queue.
const writeQueue = 64

// newPipeline starts the workers; the writer holds capacity float64s.
func newPipeline(store Store, capacity int, table []vecEntry) *pipeline {
	p := &pipeline{
		store:    store,
		table:    table,
		fetchCh:  make(chan *fetchReq, fetchQueue),
		writeCh:  make(chan *writeReq, writeQueue),
		capacity: capacity,
		pending:  make(map[int]*writeReq),
	}
	for i := 0; i < fetchWorkers; i++ {
		p.wg.Add(1)
		go p.fetchWorker(int64(i + 1))
	}
	p.wg.Add(1)
	go p.writeWorker()
	return p
}

// instrument attaches registry instruments. Must run on the compute
// thread before any request is enqueued (the workers pick the fields up
// through the enqueue's happens-before edge).
func (p *pipeline) instrument(reg *obs.Registry) {
	p.on = true
	p.fetchLat = reg.Histogram("pipe.fetch_seconds", nil)
	p.writeLat = reg.Histogram("pipe.write_back_seconds", nil)
	p.qdepth = reg.Gauge("pipe.queue_depth")
}

func (p *pipeline) fetchWorker(lane int64) {
	defer p.wg.Done()
	for req := range p.fetchCh {
		timed := p.on || req.span != nil
		var start time.Time
		if timed {
			start = time.Now()
		}
		// The manager queues no fetch of a vector with a pending write, so
		// the store holds its newest record.
		req.err = readChecked(p.store, req.vi, req.dst, req.want)
		// A fetch error is delivered to the compute thread via the
		// join, which decides whether it is fatal (it may instead
		// trigger a recompute for a corrupt vector) — it must NOT
		// poison the pipeline's sticky firstErr, or one recovered
		// corruption would fail every later write-back barrier.
		if req.err == nil {
			p.overlapped.Add(int64(len(req.dst)) * 8)
		}
		if timed {
			dur := time.Since(start)
			p.fetchLat.Observe(dur.Seconds())
			emitTransfer(req.span, "pipe.fetch", lane, req.vi, start, dur)
		}
		p.qdepth.Set(p.depth.Add(-1))
		req.done <- struct{}{}
	}
}

func (p *pipeline) writeWorker() {
	defer p.wg.Done()
	for req := range p.writeCh {
		timed := p.on || req.span != nil
		var start time.Time
		if timed {
			start = time.Now()
		}
		err := p.store.WriteVector(req.vi, req.buf)
		req.sum = vectorChecksum(req.buf) // the intent's, as in writeBack
		if err != nil {
			// Unlike fetches, a lost write-back has no joiner to
			// report to: the sticky error is the only escalation path.
			p.noteErr(err)
		} else {
			p.overlapped.Add(int64(len(req.buf)) * 8)
		}
		if timed {
			dur := time.Since(start)
			p.writeLat.Observe(dur.Seconds())
			emitTransfer(req.span, "pipe.write_back", writerLane, req.vi, start, dur)
		}
		p.qdepth.Set(p.depth.Add(-1))
		req.done <- struct{}{}
	}
}

// emitTransfer records one worker-side transfer as a child of sp on its
// lane; a no-op when untraced.
func emitTransfer(sp *obs.Span, name string, lane int64, vi int, start time.Time, dur time.Duration) {
	if sp != nil {
		sp.EmitChild(name, start, dur, obs.Attr{Key: obs.LaneAttr, Int: lane}, obs.Attr{Key: "vid", Int: int64(vi)})
	}
}

// readPending serves a read of vector vi from its pending write-back
// buffer, if it has one, and reports whether it did. Compute thread
// only.
func (p *pipeline) readPending(vi int, dst []float64) bool {
	w, ok := p.pending[vi]
	if ok {
		copy(dst, w.buf)
		p.wqHits.Add(1)
	}
	return ok
}

// enqueueFetch queues a background stage-in of vi into dst, checked
// against want and traced under sp. Blocks only when the bounded fetch
// queue is full; a non-nil cancelled ctx aborts that wait and returns
// ctx's error with no request queued.
func (p *pipeline) enqueueFetch(ctx context.Context, vi int, dst []float64, want vecEntry, sp *obs.Span) (*fetchReq, error) {
	req := reuse(&p.fetchFree, func() *fetchReq { return &fetchReq{done: make(chan struct{}, 1)} })
	req.vi, req.dst, req.want, req.span = vi, dst, want, sp
	p.bumpDepth()
	if ctx == nil {
		p.fetchCh <- req
		return req, nil
	}
	select {
	case p.fetchCh <- req:
		return req, nil
	default:
	}
	select {
	case p.fetchCh <- req:
		return req, nil
	case <-ctx.Done():
		p.qdepth.Set(p.depth.Add(-1))
		p.putFetch(req)
		return nil, ctx.Err()
	}
}

// reuse pops a request from free, or makes one.
func reuse[T any](free *[]*T, mk func() *T) *T {
	if k := len(*free); k > 0 {
		r := (*free)[k-1]
		*free = (*free)[:k-1]
		return r
	}
	return mk()
}

// putFetch recycles a joined (or never queued) fetch request.
func (p *pipeline) putFetch(req *fetchReq) {
	req.dst, req.span, req.err = nil, nil, nil
	p.fetchFree = append(p.fetchFree, req)
}

// enqueueWrite queues buf, which the writer owns from here on, as the
// newest record of vector vi, traced under sp (after reclaimFor).
func (p *pipeline) enqueueWrite(vi int, buf []float64, sp *obs.Span) {
	req := reuse(&p.writeFree, func() *writeReq { return &writeReq{done: make(chan struct{}, 1)} })
	req.vi, req.buf, req.span = vi, buf, sp
	p.pending[vi] = req
	p.queue = append(p.queue, req)
	p.queued += cap(buf)
	p.bumpDepth()
	p.writeCh <- req
}

// reclaimFor takes queued writes back, oldest first, until n more
// float64s fit within capacity: which ones depends on the evictions
// alone, never on timing. A cancelled ctx aborts a wait (a write that
// has landed is still taken back first, keeping evictions deterministic).
func (p *pipeline) reclaimFor(ctx context.Context, n int) error {
	for len(p.queue) > 0 && p.queued+n > p.capacity {
		if err := p.reclaimOldest(ctx); err != nil {
			return err
		}
	}
	return nil
}

// reclaimOldest waits for the oldest queued write to land, retires it
// from the pending map, recording its checksum in the table if it is
// its vector's newest (the length was recorded at eviction), and moves
// its buffer to returned.
func (p *pipeline) reclaimOldest(ctx context.Context) error {
	w := p.queue[0]
	var cancel <-chan struct{} // nil, so never ready, without a ctx
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-w.done:
	default:
		select {
		case <-w.done:
		case <-cancel:
			return ctx.Err()
		}
	}
	p.queue = slices.Delete(p.queue, 0, 1)
	p.queued -= cap(w.buf)
	if p.pending[w.vi] == w {
		delete(p.pending, w.vi)
		e := &p.table[w.vi]
		e.n, e.sum = e.n|stored, w.sum
	}
	p.returned = append(p.returned, w.buf)
	w.buf, w.span = nil, nil
	p.writeFree = append(p.writeFree, w)
	return nil
}

// barrier blocks until every write queued so far has reached the
// store, takes every buffer back, then reports the first background
// error (if any). The store now holds what the buffers held, and Flush
// may write a newer record of their vectors past the queue.
func (p *pipeline) barrier() error {
	for len(p.queue) > 0 {
		_ = p.reclaimOldest(nil)
	}
	return p.err()
}

// shutdown stops all workers after draining both queues.
func (p *pipeline) shutdown() error {
	p.stop.Do(func() {
		close(p.fetchCh)
		close(p.writeCh)
	})
	p.wg.Wait()
	return p.err()
}

func (p *pipeline) bumpDepth() {
	d := p.depth.Add(1)
	p.qdepth.Set(d)
	for {
		max := p.depthMax.Load()
		if d <= max || p.depthMax.CompareAndSwap(max, d) {
			return
		}
	}
}

func (p *pipeline) noteErr(err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
}

func (p *pipeline) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}
