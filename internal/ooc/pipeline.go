package ooc

// The asynchronous I/O pipeline — the paper's §5 future work ("we will
// assess if pre-fetching can be deployed by means of a prefetch
// thread") made real. The synchronous manager interleaves compute and
// I/O on one thread: every demand miss blocks on Store.ReadVector and
// every eviction blocks on Store.WriteVector. The pipeline moves both
// off the compute thread:
//
//   - Prefetch stage-ins are executed by a pool of fetch worker
//     goroutines fed from a bounded queue. The slot is mapped (and the
//     replacement strategy updated) synchronously, so all *decisions*
//     are identical to the synchronous manager; only the byte transfer
//     overlaps compute. A demand access that arrives before the fetch
//     completes joins the in-flight read instead of re-issuing it.
//   - Evictions hand the victim's buffer to a single write-back
//     goroutine and patch a spare buffer from a small pool into the
//     slot, returning immediately. The compute thread blocks only when
//     every spare is already in the write queue.
//
// Correctness bar: the pipeline may change WHEN I/O happens, never
// WHAT is computed. All slot mapping, eviction choices, strategy
// bookkeeping and Stats counters run on the compute goroutine in the
// exact order of the synchronous manager, so log-likelihoods are
// bit-identical and miss accounting is unchanged. Consistency rules:
//
//   - Read-after-write: a read of a vector whose write-back buffer the
//     compute thread has not taken back as a spare is served from that
//     buffer (readPending), never from a possibly stale store region.
//     The buffer stays readable until its reuse, not just until its
//     write lands, so which reads it serves depends on the order of
//     evictions alone, never on the writer's timing; a prefetch of such
//     a vector is served the same way, on the compute thread.
//   - Write-write: a single writer goroutine drains the queue FIFO, so
//     two queued writes to the same vector land in issue order.
//   - Fetch-evict: evicting a slot whose stage-in is in flight first
//     joins the fetch, so a buffer is never written back (or reused)
//     while a worker is still filling it.
//   - Flush/Close barrier: Flush joins every in-flight fetch and
//     drains the write queue before writing residents, so the store
//     ends in exactly the state a synchronous run would leave.
//
// The Manager remains single-caller: the pipeline adds goroutines
// *inside* the manager, not concurrency on its API.
//
// Every out-of-core run the product opens (analysis.Open: the CLI and
// each daemon session) is pipelined. The synchronous manager stays as
// the tests' reference and as the manager of the paper-faithful
// experiment arms, whose store counters must repeat in a fixed order.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
)

// PipelineStats counts the asynchronous pipeline's activity. All
// quantities are maintained on the compute thread or read atomically;
// read them via Manager.PipelineStats after the workload (they are a
// snapshot, not synchronized with in-flight work).
type PipelineStats struct {
	// Enabled reports whether the manager ran with the async pipeline.
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
	// OverlappedBytes totals the bytes moved by background goroutines —
	// I/O that a synchronous manager would have charged to the compute
	// thread.
	OverlappedBytes int64
	// StallTime is the total time the compute thread spent blocked on
	// I/O: synchronous store calls on the demand path, waits for
	// in-flight fetches (JoinWait), waits for a spare write-back buffer
	// (BufferWait) and Flush/Close barriers. The synchronous manager
	// fills this too, so sync-vs-async stall is directly comparable.
	StallTime time.Duration
	// JoinWait is the portion of StallTime spent joining fetches.
	JoinWait time.Duration
	// BufferWait is the portion spent waiting for a spare buffer.
	BufferWait time.Duration
	// QueueDepthMax is the high-water mark of simultaneously queued
	// background operations (fetches + writes).
	QueueDepthMax int64
	// Retries counts transient-I/O retries taken by the manager's
	// retry policy, across the sync demand path and both worker kinds.
	Retries int64
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
// vector vi and closes done. The slot owning dst is reserved by the
// compute thread before the request is queued and is not touched again
// until the request is joined.
type fetchReq struct {
	vi  int
	dst []float64
	// span is the manager's span at enqueue; the worker's pipe.fetch
	// span is emitted under it (nil when untraced).
	span *obs.Span
	err  error
	done chan struct{}
}

// writeReq is one queued write-back. buf is the vector's record, a
// prefix of a former slot buffer. After the write lands the request
// itself goes to the spare pool, and the compute thread retires it from
// the pending map when it takes the buffer back, so until then readers
// can always copy from it.
type writeReq struct {
	vi  int
	buf []float64
	// span, as in fetchReq, parents the writer's pipe.write_back span.
	span *obs.Span
	done chan struct{}
}

// pipeline owns the background goroutines and the queues between them
// and the compute thread.
type pipeline struct {
	store  Store
	vecLen int

	fetchCh chan *fetchReq
	writeCh chan *writeReq
	// spares holds the buffers not currently patched into a slot, each
	// in the write request that last used it (vi -1 for one never
	// used); exactly cap(spares) buffers circulate, so the writer's
	// return send can never block.
	spares chan *writeReq

	// pending maps a vector to its newest write request whose buffer is
	// not yet back in a slot, and lastWrite is the newest request. Both
	// belong to the compute thread.
	pending   map[int]*writeReq
	lastWrite *writeReq

	mu       sync.Mutex
	firstErr error

	depth      atomic.Int64
	depthMax   atomic.Int64
	overlapped atomic.Int64
	wqHits     atomic.Int64

	retry   RetryPolicy
	retried *atomic.Int64

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

func newPipeline(store Store, vecLen int, retry RetryPolicy, retried *atomic.Int64) *pipeline {
	p := &pipeline{
		store:   store,
		vecLen:  vecLen,
		fetchCh: make(chan *fetchReq, fetchQueue),
		writeCh: make(chan *writeReq, writeBuffers),
		spares:  make(chan *writeReq, writeBuffers),
		pending: make(map[int]*writeReq),
		retry:   retry,
		retried: retried,
	}
	for i := 0; i < writeBuffers; i++ {
		p.spares <- &writeReq{vi: -1, buf: make([]float64, vecLen)}
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
		req.err = p.retry.run(p.retried, func() error {
			return p.store.ReadVector(req.vi, req.dst)
		})
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
		close(req.done)
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
		err := p.retry.run(p.retried, func() error {
			return p.store.WriteVector(req.vi, req.buf)
		})
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
		close(req.done)
		p.spares <- req
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

// enqueueFetch queues a background stage-in of vi into dst, traced
// under sp. Blocks only when the bounded fetch queue is full; a non-nil
// cancelled ctx aborts that wait and returns ctx's error with no
// request queued.
func (p *pipeline) enqueueFetch(ctx context.Context, vi int, dst []float64, sp *obs.Span) (*fetchReq, error) {
	req := &fetchReq{vi: vi, dst: dst, span: sp, done: make(chan struct{})}
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
		return nil, ctx.Err()
	}
}

// enqueueWrite queues buf as the newest record of vector vi, traced
// under sp. The caller has already removed buf's slot buffer from the
// slot array.
func (p *pipeline) enqueueWrite(vi int, buf []float64, sp *obs.Span) {
	req := &writeReq{vi: vi, buf: buf, span: sp, done: make(chan struct{})}
	p.pending[vi] = req
	p.lastWrite = req
	p.bumpDepth()
	p.writeCh <- req
}

// acquireSpare blocks until a spare buffer is available and retires the
// write that last used it from the pending map. The writer is FIFO, so
// spares come back in the order their writes were queued, and which
// write a given eviction retires does not depend on timing. A non-nil
// cancelled ctx aborts the wait (a spare that is ready is still
// preferred over the cancellation, keeping evictions deterministic
// under light load).
func (p *pipeline) acquireSpare(ctx context.Context) ([]float64, error) {
	var r *writeReq
	select {
	case r = <-p.spares:
	default:
		if ctx == nil {
			r = <-p.spares
			break
		}
		select {
		case r = <-p.spares:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if p.pending[r.vi] == r {
		delete(p.pending, r.vi)
	}
	return r.buf[:p.vecLen], nil
}

// barrier blocks until every write queued so far has reached the
// store, then reports the first background error (if any). The pending
// buffers are forgotten: the store holds what they hold, and Flush may
// now write a newer record of their vectors past the queue.
func (p *pipeline) barrier() error {
	if p.lastWrite != nil {
		<-p.lastWrite.done
	}
	clear(p.pending)
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
