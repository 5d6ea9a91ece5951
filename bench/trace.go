package main

// Tracing for the -trace run: timing wrappers interposed at the two
// exported seams of the out-of-core stack (plf.VectorProvider around
// the manager, ooc.Store above and below ChecksumStore), one span per
// op and per wrapped call, kept in memory and written as a Chrome
// trace_event file when the run ends. An untraced run installs none of
// this: end-to-end metrics never pay for a clock read.

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// kind names what a span timed; it is also the span's display name and
// (for wrapped calls) selects the Chrome track.
type kind uint8

const (
	kOp kind = iota
	kSetupSim
	kSetupReference
	kSetupOpenStore
	kSetupFirstTraversal
	kSetupWarmup
	kVector
	kPrefetch
	kOuterRead
	kOuterWrite
	kInnerRead
	kInnerWrite
	kHTTP
	kBatchWait
	kExec
	numKinds
)

var kindNames = [numKinds]string{
	"op", "setup.sim", "setup.reference", "setup.open_store", "setup.first_traversal", "setup.warmup",
	"ooc.manager.vector", "ooc.manager.prefetch",
	"ooc.checksum.read", "ooc.checksum.write", "ooc.filestore.read", "ooc.filestore.write",
	"service.http", "service.batch_wait", "service.exec",
}

// track is the Chrome tid a kind is drawn on: one row per layer, so
// calls made from I/O goroutines never nest under compute-thread spans
// they merely overlap. serve-remote adds its client index.
func (k kind) track() int {
	switch {
	case k <= kSetupWarmup:
		return 0
	case k <= kPrefetch:
		return 1
	case k <= kOuterWrite:
		return 2
	case k <= kInnerWrite:
		return 3
	}
	return 4
}

type span struct {
	kind   kind
	track  uint8
	parent int32 // index into recorder.spans; -1 for a root
	start  int64 // ns since recorder.epoch
	dur    int64
}

// total accumulates one kind across the timed phase.
type total struct {
	ns, calls, bytes atomic.Int64
}

// recorder collects spans and per-kind totals. Totals count only while
// timing is set (the timed phase), so layer sums and the timed wall
// share one base; spans are kept for the whole run.
type recorder struct {
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	callSpans atomic.Int64 // wrapped calls seen, kept or not

	timing atomic.Bool
	totals [numKinds]total

	// curOp and curCall are the open op span and the open provider
	// call on the compute goroutine: the parents of whatever the layers
	// below do meanwhile.
	curOp, curCall atomic.Int32
	// spanCost is the calibrated cost of recording one span.
	spanCost time.Duration
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.curOp.Store(-1)
	r.curCall.Store(-1)
	// Calibrate on a scratch recorder so the estimate includes the
	// clock reads, the lock and the append, then drop its spans.
	const n = 1 << 16
	scratch := &recorder{epoch: r.epoch, spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.finish(kVector, scratch.begin(kVector, -1), 0)
	}
	r.spanCost = time.Since(t0) / n
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// emit records a span whose bounds were measured elsewhere and returns
// its index.
func (r *recorder) emit(k kind, track int, parent int32, start, dur int64) int32 {
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: k, track: uint8(track), parent: parent, start: start, dur: dur})
	idx := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return idx
}

// maxCallSpans caps the wrapped-call spans kept for the trace file
// (about 20 MB of JSON): enough for the set-ups and the first few dozen
// ops in full detail. Op and set-up spans are always kept, and every
// call still counts towards the totals the metrics are derived from.
const maxCallSpans = 200_000

// open is a span in progress. idx is its place in recorder.spans, what
// children name as parent, or -1 once the trace file is full.
type open struct {
	idx   int32
	start int64
}

// begin opens a span now.
func (r *recorder) begin(k kind, parent int32) open {
	o := open{idx: -1, start: r.now()}
	if k <= kSetupWarmup || r.callSpans.Add(1) <= maxCallSpans {
		o.idx = r.emit(k, k.track(), parent, o.start, 0)
	}
	return o
}

// finish closes a span opened by begin and, during the timed phase,
// adds it to its kind's totals.
func (r *recorder) finish(k kind, o open, bytes int64) {
	dur := r.now() - o.start
	if o.idx >= 0 {
		r.mu.Lock()
		r.spans[o.idx].dur = dur
		r.mu.Unlock()
	}
	if r.timing.Load() {
		t := &r.totals[k]
		t.ns.Add(dur)
		t.calls.Add(1)
		t.bytes.Add(bytes)
	}
}

// startTiming opens the timed phase: from here on finished spans count
// towards the totals. measure calls it once its own preparations (the
// barrier that empties the write queue) are done.
func (r *recorder) startTiming() {
	if r != nil {
		r.timing.Store(true)
	}
}

// beginOp opens an op span and makes it the parent of what the layers
// do until endOp. Both are no-ops on a nil recorder, so the timed loops
// read the same traced or not.
func (r *recorder) beginOp() open {
	if r == nil {
		return open{}
	}
	o := r.begin(kOp, -1)
	r.curOp.Store(o.idx)
	return o
}

func (r *recorder) endOp(o open) {
	if r != nil {
		r.finish(kOp, o, 0)
	}
}

// phase times fn as a set-up phase span. A nil recorder just runs fn,
// so set-up code reads the same traced or not.
func (r *recorder) phase(k kind, fn func() error) error {
	if r == nil {
		return fn()
	}
	o := r.begin(k, -1)
	err := fn()
	r.finish(k, o, 0)
	return err
}

// phaseSeconds sums the spans of kind k that started at or after from
// (the last set-up's phases).
func (r *recorder) phaseSeconds(k kind, from int64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.kind == k && s.start >= from {
			ns += s.dur
		}
	}
	return float64(ns) / 1e9
}

func (r *recorder) seconds(k kind) float64 { return float64(r.totals[k].ns.Load()) / 1e9 }

// writeChrome writes every span as a Chrome trace_event "complete"
// event. args.parent is the index of the causing span.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.mu.Lock()
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	buf := make([]byte, 0, 160)
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, kindNames[s.kind]...)
		buf = append(buf, `","ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(s.track), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.dur)/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	r.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedProvider times every call the engine makes into its vector
// provider. It forwards each optional method the engine probes for by
// type assertion, so wrapping changes no decision the engine takes.
type tracedProvider struct {
	inner plf.VectorProvider
	rec   *recorder
}

func (p *tracedProvider) call(k kind, fn func() error) error {
	o := p.rec.begin(k, p.rec.curOp.Load())
	p.rec.curCall.Store(o.idx)
	err := fn()
	p.rec.curCall.Store(-1)
	p.rec.finish(k, o, 0)
	return err
}

func (p *tracedProvider) Vector(vi int, write bool, pinned ...int) (v []float64, err error) {
	err = p.call(kVector, func() error {
		v, err = p.inner.Vector(vi, write, pinned...)
		return err
	})
	return v, err
}

func (p *tracedProvider) NumVectors() int { return p.inner.NumVectors() }
func (p *tracedProvider) VectorLen() int  { return p.inner.VectorLen() }

func (p *tracedProvider) Prefetch(vi int, pinned ...int) error {
	pf, ok := p.inner.(interface {
		Prefetch(vi int, pinned ...int) error
	})
	if !ok {
		return nil
	}
	return p.call(kPrefetch, func() error { return pf.Prefetch(vi, pinned...) })
}

func (p *tracedProvider) FetchCost(vi int) (time.Duration, bool) {
	if fc, ok := p.inner.(ooc.FetchCoster); ok {
		return fc.FetchCost(vi)
	}
	return 0, false
}

func (p *tracedProvider) Degraded() bool {
	d, ok := p.inner.(ooc.Degrader)
	return ok && d.Degraded()
}

func (p *tracedProvider) SetContext(ctx context.Context) {
	if sc, ok := p.inner.(interface{ SetContext(context.Context) }); ok {
		sc.SetContext(ctx)
	}
}

func (p *tracedProvider) SetSpan(sp *obs.Span) {
	if ss, ok := p.inner.(interface{ SetSpan(*obs.Span) }); ok {
		ss.SetSpan(sp)
	}
}

// tracedStore times every call into an ooc.Store. Two of them bracket
// ChecksumStore: the outer one sees what the manager pays per vector,
// the inner one what the file pays, and the difference is the CRC. The
// optional capabilities go through ooc's own forwarding helpers.
type tracedStore struct {
	inner       ooc.Store
	rec         *recorder
	read, write kind
	vecLen      int
	// outer marks the wrapper above ChecksumStore.
	outer bool
	// sync reports a synchronous manager: its store calls run on the
	// compute goroutine inside a provider call, which is then their
	// parent. Pipeline goroutines are caused by the op instead.
	sync bool
	// open, shared by the two wrappers, maps a vector to the outer span
	// working on it, so the inner span can name it as parent across
	// ChecksumStore. The Store contract forbids two writers on one
	// vector, so an entry has one owner at a time.
	open []atomic.Int32
}

// traceStores brackets mid (built over the returned inner wrapper by
// wrap) with an inner and an outer timing wrapper.
func traceStores(rec *recorder, file ooc.Store, n, vecLen int, sync bool, wrap func(ooc.Store) (ooc.Store, error)) (ooc.Store, error) {
	open := make([]atomic.Int32, n)
	for i := range open {
		open[i].Store(-1)
	}
	inner := &tracedStore{inner: file, rec: rec, read: kInnerRead, write: kInnerWrite, vecLen: vecLen, open: open}
	mid, err := wrap(inner)
	if err != nil {
		return nil, err
	}
	return &tracedStore{inner: mid, rec: rec, read: kOuterRead, write: kOuterWrite, vecLen: vecLen, outer: true, sync: sync, open: open}, nil
}

func (s *tracedStore) call(k kind, vi, n int, fn func() error) error {
	var parent int32
	switch {
	case !s.outer:
		parent = s.open[vi].Load()
	case s.sync && s.rec.curCall.Load() >= 0:
		parent = s.rec.curCall.Load()
	default:
		parent = s.rec.curOp.Load()
	}
	o := s.rec.begin(k, parent)
	if s.outer {
		s.open[vi].Store(o.idx)
	}
	err := fn()
	if s.outer {
		s.open[vi].Store(-1)
	}
	s.rec.finish(k, o, int64(n)*8)
	return err
}

func (s *tracedStore) ReadVector(vi int, dst []float64) error {
	return s.call(s.read, vi, len(dst), func() error { return s.inner.ReadVector(vi, dst) })
}

func (s *tracedStore) WriteVector(vi int, src []float64) error {
	return s.call(s.write, vi, len(src), func() error { return s.inner.WriteVector(vi, src) })
}

func (s *tracedStore) ReadRange(ctx context.Context, vi, count int, dst []float64) error {
	return s.call(s.read, vi, len(dst), func() error { return ooc.ReadRangeOf(ctx, s.inner, s.vecLen, vi, count, dst) })
}

func (s *tracedStore) WriteRange(ctx context.Context, vi, count int, src []float64) error {
	return s.call(s.write, vi, len(src), func() error { return ooc.WriteRangeOf(ctx, s.inner, s.vecLen, vi, count, src) })
}

func (s *tracedStore) Close() error                           { return s.inner.Close() }
func (s *tracedStore) Sync() error                            { return ooc.SyncStore(s.inner) }
func (s *tracedStore) FetchCost(vi int) (time.Duration, bool) { return ooc.StoreFetchCost(s.inner, vi) }
func (s *tracedStore) MemOverheadBytes() int64                { return ooc.StoreMemOverhead(s.inner) }
func (s *tracedStore) Degraded() bool                         { return ooc.StoreDegraded(s.inner) }
