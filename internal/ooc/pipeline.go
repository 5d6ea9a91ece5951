package ooc

// The write-back pipeline. The paper's manager interleaves compute and
// I/O on one thread: every demand miss blocks on Store.ReadVector and
// every eviction blocks on Store.WriteVector. The pipeline moves the
// evictions' writes off the compute thread; demand reads and Flush's
// writes of residents stay on it. An eviction hands the victim's
// record — its own buffer, which the writer now owns — to a single
// write-back goroutine and returns at once. The compute thread blocks
// only when the records still queued leave no room for this one within
// PipelineBytes; it then takes buffers back, oldest write first, into
// the pool.
//
// Correctness bar: the pipeline may change WHEN a write lands, never
// WHAT is computed. All slot mapping, eviction choices, strategy
// bookkeeping and Stats counters run on the compute goroutine, so
// log-likelihoods and miss accounting do not depend on the writer's
// timing. Consistency rules:
//
//   - Read-after-write: a read of a vector whose write-back buffer the
//     compute thread has not taken back is served from that buffer
//     (readPending), never from a possibly stale store region. The
//     buffer stays readable until it is taken back, not just until its
//     write lands, and it is taken back only when the queued bytes
//     demand it or at a barrier, so which reads it serves depends on the
//     order and sizes of evictions alone, never on the writer's timing.
//   - Write-write: a single writer goroutine drains the queue FIFO, so
//     two queued writes to the same vector land in issue order.
//   - Flush/Close barrier: Flush drains the write queue before writing
//     residents, so older write-backs land before newer ones.
//
// The Manager remains single-caller: the pipeline adds one goroutine
// *inside* the manager, not concurrency on its API.

import (
	"context"
	"slices"
	"sync"
	"time"

	"oocphylo/internal/obs"
)

// PipelineStats counts the pipeline's activity, as Manager.PipelineStats
// reads it from the manager's and the pipeline's counters.
type PipelineStats struct {
	// Enabled is always true: every manager is pipelined. It stays for
	// callers that still read it, the benchmark harness among them.
	Enabled bool
	// WritesQueued counts write-backs handed to the writer.
	WritesQueued int64
	// WriteQueueHits counts reads served from a pending write-back
	// buffer (the read-after-write consistency path).
	WriteQueueHits int64
	// OverlappedBytes totals the bytes the writer moved rather than the
	// compute thread.
	OverlappedBytes int64
	// StallTime is the total time the compute thread spent blocked on
	// I/O: store calls on the demand path, waits for queued write-backs
	// to land (BufferWait) and Flush/Close barriers.
	StallTime time.Duration
	// JoinWait is always 0: no read runs off the compute thread, so
	// nothing is joined. It stays for callers that still read it, the
	// benchmark harness among them.
	JoinWait time.Duration
	// BufferWait is the portion spent waiting for queued writes to
	// land so an evicted record fits beside them.
	BufferWait time.Duration
	// QueueDepthMax is the high-water mark of simultaneously queued
	// write-backs.
	QueueDepthMax int64
	// CorruptReads counts checksum-verification failures surfaced to
	// the manager (each one either aborted the access or triggered a
	// recompute upstream).
	CorruptReads int64
}

// writeReq is one queued write-back. buf is the vector's record, in
// its pool buffer, which readers can copy from until the compute thread
// takes the request back (reclaimOldest); the writer hashes it into sum
// before it signals done.
type writeReq struct {
	vi  int
	buf []float64
	sum uint32
	// span is the manager's span at enqueue; the writer's
	// pipe.write_back span is emitted under it (nil when untraced).
	span *obs.Span
	done chan struct{}
}

// pipeline owns the writer goroutine and the queue between it and the
// compute thread.
type pipeline struct {
	store Store
	table []vecEntry // the manager's, written by reclaimOldest

	writeCh chan *writeReq

	// The rest of the block is the compute thread's. queue holds the
	// writes not taken back, oldest first; queued is their capacity in
	// float64s. pending maps a vector to its newest queued write.
	// returned holds taken-back buffers for the manager's free list;
	// writeFree holds requests for reuse.
	queue            []*writeReq
	queued, capacity int
	pending          map[int]*writeReq
	returned         [][]float64
	writeFree        []*writeReq

	mu       sync.Mutex
	firstErr error

	// wqHits counts reads served from a pending buffer, overlapped the
	// bytes the writer stored, and qdepth the writes in flight, its
	// high-water mark PipelineStats.QueueDepthMax. They are never nil
	// (see Manager.counters).
	wqHits, overlapped *obs.Counter
	qdepth             *obs.Gauge

	// Registry-only instruments; nil (and on false) when
	// uninstrumented. depthMax exports qdepth's high-water mark under
	// the counter name it has always had. Like the rebinding of the
	// counters above, Manager.Instrument writes them on the compute
	// thread BEFORE the first request is enqueued; the writer reads them
	// only while servicing a request, so the channel send/receive
	// provides the happens-before edge.
	on       bool
	writeLat *obs.Histogram
	depthMax *obs.Counter

	wg   sync.WaitGroup
	stop sync.Once
}

// writerLane is the write-back goroutine's obs.LaneAttr; the compute
// thread is lane 0.
const writerLane = 1

// writeQueue bounds the channel to the writer; the byte cap
// (capacity) is what normally bounds the queue.
const writeQueue = 64

// newPipeline starts the writer, which holds capacity float64s.
func newPipeline(store Store, capacity int, table []vecEntry) *pipeline {
	p := &pipeline{
		store:    store,
		table:    table,
		writeCh:  make(chan *writeReq, writeQueue),
		capacity: capacity,
		pending:  make(map[int]*writeReq),
		qdepth:   new(obs.Gauge),
	}
	p.wg.Add(1)
	go p.writeWorker()
	return p
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
			// A lost write-back has no caller to report to: the sticky
			// error is the only escalation path.
			p.noteErr(err)
		} else {
			p.overlapped.Add(int64(len(req.buf)) * 8)
		}
		if timed {
			dur := time.Since(start)
			p.writeLat.Observe(dur.Seconds())
			if req.span != nil {
				req.span.EmitChild("pipe.write_back", start, dur, obs.Attr{Key: obs.LaneAttr, Int: writerLane}, obs.Attr{Key: "vid", Int: int64(req.vi)})
			}
		}
		p.qdepth.Add(-1)
		req.done <- struct{}{}
	}
}

// readPending serves a read of vector vi from its pending write-back
// buffer, if it has one, and reports whether it did. Compute thread
// only.
func (p *pipeline) readPending(vi int, dst []float64) bool {
	w, ok := p.pending[vi]
	if ok {
		copy(dst, w.buf)
		p.wqHits.Inc()
	}
	return ok
}

// enqueueWrite queues buf, which the writer owns from here on, as the
// newest record of vector vi, traced under sp (after reclaimFor).
func (p *pipeline) enqueueWrite(vi int, buf []float64, sp *obs.Span) {
	var req *writeReq
	if k := len(p.writeFree); k > 0 {
		req, p.writeFree = p.writeFree[k-1], p.writeFree[:k-1]
	} else {
		req = &writeReq{done: make(chan struct{}, 1)}
	}
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

// shutdown stops the writer after draining its queue.
func (p *pipeline) shutdown() error {
	p.stop.Do(func() { close(p.writeCh) })
	p.wg.Wait()
	return p.err()
}

// bumpDepth counts a write into the queue.
func (p *pipeline) bumpDepth() {
	p.qdepth.Add(1)
	p.depthMax.Set(p.qdepth.Max())
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
