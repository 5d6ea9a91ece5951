package obs

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Request-scoped distributed tracing. A Span is one timed operation in
// one request's Trace; spans propagate across HTTP hops via the W3C
// traceparent header (client → daemon /v1/* → remote object store), so
// a single trace follows a request through the session loop and its
// batch, the likelihood engine, the out-of-core manager and the tiered
// store's cache and remote requests.
//
// Spans are also the package's one event model below the request: a
// one-shot run attaches a run-long root span and every layer's fault-in,
// pipeline transfer and kernel pass lands under it, each background I/O
// worker's spans tagged with a lane attribute of their own.
//
// Cost model matches the rest of the package: a nil *Span is a no-op
// on every method, so an untraced request pays one nil check per call
// site and never touches the clock. Finished spans land in a bounded
// SpanCollector (oldest trace evicted first, a full trace overwrites
// its own oldest spans, drops counted), which backs /debug/trace/{id}
// and the Chrome trace export.

// TraceID is a 128-bit W3C trace id.
type TraceID [16]byte

// SpanID is a 64-bit W3C span id.
type SpanID [8]byte

// String returns the 32-hex-digit form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-hex-digit form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is all zeroes (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idRand is a locked PRNG seeded once from crypto/rand: span creation
// must not block on the kernel entropy pool per request.
var idRand = func() *rand.Rand {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
}()
var idRandMu sync.Mutex

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	idRandMu.Lock()
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[0:8], idRand.Uint64())
		binary.LittleEndian.PutUint64(t[8:16], idRand.Uint64())
	}
	idRandMu.Unlock()
	return t
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	idRandMu.Lock()
	for s.IsZero() {
		binary.LittleEndian.PutUint64(s[:], idRand.Uint64())
	}
	idRandMu.Unlock()
	return s
}

// FormatTraceparent renders a W3C traceparent header value
// (version 00, sampled flag set).
func FormatTraceparent(t TraceID, s SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", t.String(), s.String())
}

// ParseTraceparent parses a W3C traceparent header value. Only version
// 00 with valid non-zero ids is accepted.
func ParseTraceparent(v string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(v) != 55 || v[0:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return t, s, false
	}
	if _, err := hex.Decode(t[:], []byte(v[3:35])); err != nil {
		return t, s, false
	}
	if _, err := hex.Decode(s[:], []byte(v[36:52])); err != nil {
		return t, s, false
	}
	if t.IsZero() || s.IsZero() {
		return t, s, false
	}
	return t, s, true
}

// NewTraceparent mints a fresh traceparent value without any span
// machinery — what a client with no collector injects on an outbound
// request. The returned trace id string identifies the trace server-side.
func NewTraceparent() (header, traceID string) {
	t, s := NewTraceID(), NewSpanID()
	return FormatTraceparent(t, s), t.String()
}

// Cost is a request's resource ledger: what one evaluate paid across
// the engine, the out-of-core manager and the tiered store. Values are
// deltas attributed to exactly one request (the session loop is
// serialized, so counter deltas around one request are exact).
type Cost struct {
	// VectorsFaulted counts demand misses the manager staged in.
	VectorsFaulted int64 `json:"vectors_faulted,omitempty"`
	// LocalReads/BytesLocal: vector reads served by the local tier
	// (cache hits under a tiered store, plain store reads otherwise).
	LocalReads int64 `json:"local_reads,omitempty"`
	BytesLocal int64 `json:"bytes_local,omitempty"`
	// RemoteGets/BytesRemote: remote GET requests and bytes fetched
	// from the object store.
	RemoteGets  int64 `json:"remote_gets,omitempty"`
	BytesRemote int64 `json:"bytes_remote,omitempty"`
	// BytesPushed: dirty write-back bytes pushed to the remote store.
	BytesPushed int64 `json:"bytes_pushed,omitempty"`
	// Recomputes counts vectors the engine rebuilt because a read of
	// them failed — corrupt, or unreadable while the remote tier is
	// down (plf.Stats.Recoveries); Newviews the ancestral vectors
	// computed, those rebuilds' newviews included.
	Recomputes int64 `json:"recomputes,omitempty"`
	Newviews   int64 `json:"newviews,omitempty"`
	// PCacheHits counts P-matrix cache hits.
	PCacheHits int64 `json:"pcache_hits,omitempty"`
	// WaitMicros/ExecMicros is the batching split: time from enqueue to
	// batch execution start (queued behind the pass in flight), and the
	// request's serialized execution span.
	WaitMicros int64 `json:"wait_us,omitempty"`
	ExecMicros int64 `json:"exec_us,omitempty"`
}

// Add returns the field-wise sum.
func (c Cost) Add(d Cost) Cost {
	c.VectorsFaulted += d.VectorsFaulted
	c.LocalReads += d.LocalReads
	c.BytesLocal += d.BytesLocal
	c.RemoteGets += d.RemoteGets
	c.BytesRemote += d.BytesRemote
	c.BytesPushed += d.BytesPushed
	c.Recomputes += d.Recomputes
	c.Newviews += d.Newviews
	c.PCacheHits += d.PCacheHits
	c.WaitMicros += d.WaitMicros
	c.ExecMicros += d.ExecMicros
	return c
}

// IsZero reports whether every field is zero.
func (c Cost) IsZero() bool { return c == Cost{} }

// String renders the compact k=v form the CLI prints on its Cost: line.
func (c Cost) String() string {
	return fmt.Sprintf("faults=%d;local_reads=%d;bytes_local=%d;remote_gets=%d;bytes_remote=%d;bytes_pushed=%d;recomputes=%d;newviews=%d;pcache_hits=%d;wait_us=%d;exec_us=%d",
		c.VectorsFaulted, c.LocalReads, c.BytesLocal, c.RemoteGets, c.BytesRemote,
		c.BytesPushed, c.Recomputes, c.Newviews, c.PCacheHits, c.WaitMicros, c.ExecMicros)
}

// CostLedger is the mutable per-trace accumulator. The root span owns
// one; every child shares it. A nil *CostLedger is a no-op.
type CostLedger struct {
	mu sync.Mutex
	c  Cost
}

// Add merges d into the ledger.
func (l *CostLedger) Add(d Cost) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.c = l.c.Add(d)
	l.mu.Unlock()
}

// Snapshot returns the accumulated cost.
func (l *CostLedger) Snapshot() Cost {
	if l == nil {
		return Cost{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// Attr is one span attribute; Str empty means the value is Int.
type Attr struct {
	Key string `json:"key"`
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// Span is one timed operation within a trace. Create roots with
// SpanCollector.StartTrace / StartRemoteChild, children with
// StartChild. All methods are nil-safe no-ops.
type Span struct {
	col    *SpanCollector
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	ledger *CostLedger

	mu    sync.Mutex
	attrs []Attr
	links []SpanID
	ended bool
}

// TraceID returns the span's trace id (zero for nil).
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return TraceID{}
	}
	return sp.trace
}

// ID returns the span id (zero for nil).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return SpanID{}
	}
	return sp.id
}

// Traceparent renders the header value that makes an outbound request
// a child of this span ("" for nil).
func (sp *Span) Traceparent() string {
	if sp == nil {
		return ""
	}
	return FormatTraceparent(sp.trace, sp.id)
}

// AddCost merges d into the trace's cost ledger.
func (sp *Span) AddCost(d Cost) {
	if sp == nil {
		return
	}
	sp.ledger.Add(d)
}

// SetAttr records an integer attribute.
func (sp *Span) SetAttr(key string, v int64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Int: v})
	sp.mu.Unlock()
}

// SetAttrStr records a string attribute.
func (sp *Span) SetAttrStr(key, v string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Str: v})
	sp.mu.Unlock()
}

// LinkTo records a flow link from this span to other (rendered as a
// Chrome trace flow arrow — e.g. a batched request pointing at the
// shared engine-pass span that executed it).
func (sp *Span) LinkTo(other *Span) {
	if sp == nil || other == nil {
		return
	}
	sp.mu.Lock()
	sp.links = append(sp.links, other.id)
	sp.mu.Unlock()
}

// EmitChild records an already-finished child span in one call — the
// shape layer code wants when it learns an operation's duration only
// after the fact (the manager's fault-in path, the engine's kernels).
func (sp *Span) EmitChild(name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.col.add(sp.trace, SpanRecord{
		SpanID: NewSpanID().String(),
		Parent: sp.id.String(),
		Name:   name,
		Start:  start.UnixNano(),
		Dur:    dur.Nanoseconds(),
		Attrs:  attrs,
	})
}

// StartChild starts a child span sharing the trace id and cost ledger.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return &Span{
		col:    sp.col,
		trace:  sp.trace,
		id:     NewSpanID(),
		parent: sp.id,
		name:   name,
		start:  time.Now(),
		ledger: sp.ledger,
	}
}

// End finishes the span and submits it to the collector. Idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	end := time.Now()
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	attrs := sp.attrs
	links := make([]string, len(sp.links))
	for i, l := range sp.links {
		links[i] = l.String()
	}
	sp.mu.Unlock()
	sp.col.add(sp.trace, SpanRecord{
		SpanID: sp.id.String(),
		Parent: parentString(sp.parent),
		Name:   sp.name,
		Start:  sp.start.UnixNano(),
		Dur:    end.Sub(sp.start).Nanoseconds(),
		Attrs:  attrs,
		Links:  links,
	})
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// spanCtxKey keys the active span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// SpanRecord is one finished span as held by the collector and served
// by /debug/trace/{id}.
type SpanRecord struct {
	SpanID string `json:"span_id"`
	Parent string `json:"parent_span_id,omitempty"`
	Name   string `json:"name"`
	// Start is Unix nanoseconds; Dur the span length in nanoseconds.
	Start int64    `json:"start_unix_nano"`
	Dur   int64    `json:"dur_nanos"`
	Attrs []Attr   `json:"attrs,omitempty"`
	Links []string `json:"links,omitempty"`
}

// traceRecord is one trace's finished spans plus its shared ledger.
// Once spans reaches the cap it is a ring whose oldest entry is at head.
type traceRecord struct {
	id     TraceID
	seq    int // stable row order in the Chrome export
	spans  []SpanRecord
	head   int
	ledger *CostLedger
}

// ordered returns a copy of the trace's spans, oldest first.
func (rec *traceRecord) ordered() []SpanRecord {
	out := make([]SpanRecord, 0, len(rec.spans))
	out = append(out, rec.spans[rec.head:]...)
	return append(out, rec.spans[:rec.head]...)
}

// TraceView is the /debug/trace/{id} document.
type TraceView struct {
	TraceID string       `json:"trace_id"`
	Cost    Cost         `json:"cost"`
	Spans   []SpanRecord `json:"spans"`
}

// SpanCollector holds finished spans grouped by trace, bounded to
// maxTraces traces of at most maxSpansPerTrace spans each. When full,
// the oldest trace is evicted; a trace at its cap overwrites its own
// oldest span (the tail of a long run is what a timeline reader wants).
// Both losses, and spans landing after their trace was evicted, are
// counted as dropped, never silently lost. A nil collector is a no-op,
// so span creation can be wired unconditionally.
type SpanCollector struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[TraceID]*traceRecord
	order     []TraceID // insertion order, oldest first
	nextSeq   int
	total     int64
	dropped   int64
}

// DefaultMaxSpansPerTrace caps one trace's span count.
const DefaultMaxSpansPerTrace = 4096

// NewSpanCollector returns a collector bounded to maxTraces traces
// (minimum 4).
func NewSpanCollector(maxTraces int) *SpanCollector {
	if maxTraces < 4 {
		maxTraces = 4
	}
	return &SpanCollector{
		maxTraces: maxTraces,
		maxSpans:  DefaultMaxSpansPerTrace,
		traces:    make(map[TraceID]*traceRecord),
	}
}

// StartTrace starts a new root span in a fresh trace with a fresh cost
// ledger. Returns nil on a nil collector.
func (c *SpanCollector) StartTrace(name string) *Span {
	if c == nil {
		return nil
	}
	t := NewTraceID()
	led := &CostLedger{}
	c.register(t, led)
	return &Span{
		col:    c,
		trace:  t,
		id:     NewSpanID(),
		name:   name,
		start:  time.Now(),
		ledger: led,
	}
}

// StartRemoteChild starts a server-side span continuing the trace in
// the given traceparent header value. An absent or malformed header
// starts a fresh trace instead, so inbound handlers call this
// unconditionally. Returns nil on a nil collector.
func (c *SpanCollector) StartRemoteChild(name, traceparent string) *Span {
	if c == nil {
		return nil
	}
	t, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		return c.StartTrace(name)
	}
	led := c.register(t, nil)
	return &Span{
		col:    c,
		trace:  t,
		id:     NewSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
		ledger: led,
	}
}

// register ensures a trace record exists, returning its ledger. led,
// when non-nil, is installed for a newly created record.
func (c *SpanCollector) register(t TraceID, led *CostLedger) *CostLedger {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.traces[t]; ok {
		return rec.ledger
	}
	if led == nil {
		led = &CostLedger{}
	}
	for len(c.order) >= c.maxTraces {
		oldest := c.order[0]
		c.order = c.order[1:]
		if rec, ok := c.traces[oldest]; ok {
			c.dropped += int64(len(rec.spans))
			delete(c.traces, oldest)
		}
	}
	rec := &traceRecord{id: t, seq: c.nextSeq, ledger: led}
	c.nextSeq++
	c.traces[t] = rec
	c.order = append(c.order, t)
	return led
}

// add lands one finished span.
func (c *SpanCollector) add(t TraceID, rec SpanRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	tr, ok := c.traces[t]
	switch {
	case !ok:
		c.dropped++
	case len(tr.spans) < c.maxSpans:
		tr.spans = append(tr.spans, rec)
	default:
		c.dropped++
		tr.spans[tr.head] = rec
		tr.head = (tr.head + 1) % len(tr.spans)
	}
}

// Total returns the number of spans ever finished.
func (c *SpanCollector) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped returns the number of spans lost to trace eviction or the
// per-trace cap.
func (c *SpanCollector) Dropped() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// TraceCount returns the number of traces currently held.
func (c *SpanCollector) TraceCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// Trace returns the finished spans of one trace by 32-hex-digit id.
func (c *SpanCollector) Trace(id string) (TraceView, bool) {
	if c == nil {
		return TraceView{}, false
	}
	var t TraceID
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != len(t) {
		return TraceView{}, false
	}
	copy(t[:], raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.traces[t]
	if !ok {
		return TraceView{}, false
	}
	spans := rec.ordered()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return TraceView{TraceID: t.String(), Cost: rec.ledger.Snapshot(), Spans: spans}, true
}

// LaneAttr is the span attribute naming the timeline row a span is
// drawn on within its trace: the compute goroutine's spans carry none
// (lane 0), a background I/O worker's carry its own lane number.
const LaneAttr = "lane"

// WriteChromeTrace writes every collected span as Chrome trace_event
// JSON (the "JSON Object Format": {"traceEvents": [...]}) loadable in
// chrome://tracing and Perfetto. Each (trace, lane) pair is its own
// row with thread_name metadata, so a run's compute lane and its I/O
// worker lanes sit one above the other. Span links become flow arrows
// ("s"/"f" events) — a batched request's row points at the shared
// engine-pass span that executed it. col may be nil.
func WriteChromeTrace(w io.Writer, col *SpanCollector) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	if col != nil {
		col.writeChromeSpans(bw)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// spanLane returns s's LaneAttr, 0 when it has none.
func spanLane(s SpanRecord) int64 {
	for _, a := range s.Attrs {
		if a.Key == LaneAttr {
			return a.Int
		}
	}
	return 0
}

// writeChromeSpans emits the collected spans, their rows and their flow
// arrows into an open traceEvents array.
func (c *SpanCollector) writeChromeSpans(bw *bufio.Writer) {
	c.mu.Lock()
	recs := make([]*traceRecord, 0, len(c.traces))
	for _, t := range c.order {
		if rec, ok := c.traces[t]; ok {
			recs = append(recs, &traceRecord{id: rec.id, spans: rec.ordered()})
		}
	}
	c.mu.Unlock()

	// Rows in trace arrival order, lanes ascending within a trace; every
	// trace has its lane-0 row even before its first span lands.
	type row struct {
		trace int
		lane  int64
	}
	var epoch int64 // Unix nanos subtracted from every ts
	tid := make(map[row]int)
	for i, rec := range recs {
		tid[row{i, 0}] = 0
		for _, s := range rec.spans {
			if epoch == 0 || s.Start < epoch {
				epoch = s.Start
			}
			tid[row{i, spanLane(s)}] = 0
		}
	}
	rows := make([]row, 0, len(tid))
	for r := range tid {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].trace != rows[b].trace {
			return rows[a].trace < rows[b].trace
		}
		return rows[a].lane < rows[b].lane
	})
	for i, r := range rows {
		tid[r] = i
	}

	// Index span id → (row, ts) for flow arrow endpoints.
	type spanPos struct {
		tid int
		ts  float64
	}
	pos := make(map[string]spanPos)
	for i, rec := range recs {
		for _, s := range rec.spans {
			pos[s.SpanID] = spanPos{tid: tid[row{i, spanLane(s)}], ts: float64(s.Start-epoch) / 1e3}
		}
	}

	first := true
	emit := func(format string, args ...any) {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	for i, r := range rows {
		name := "trace " + recs[r.trace].id.String()[:8]
		if r.lane != 0 {
			name += fmt.Sprintf(" lane %d", r.lane)
		}
		emit("\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}", i, name)
	}
	flowID := 0
	for _, rec := range recs {
		for _, s := range rec.spans {
			p := pos[s.SpanID]
			var args []byte
			args = append(args, fmt.Sprintf("{\"span_id\":%q,\"trace_id\":%q", s.SpanID, rec.id.String())...)
			if s.Parent != "" {
				args = append(args, fmt.Sprintf(",\"parent\":%q", s.Parent)...)
			}
			for _, a := range s.Attrs {
				if a.Str != "" {
					args = append(args, fmt.Sprintf(",%q:%q", a.Key, a.Str)...)
				} else {
					args = append(args, fmt.Sprintf(",%q:%d", a.Key, a.Int)...)
				}
			}
			args = append(args, '}')
			emit("\n{\"name\":%q,\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
				s.Name, p.tid, p.ts, float64(s.Dur)/1e3, args)
			for _, link := range s.Links {
				dst, ok := pos[link]
				if !ok {
					continue
				}
				flowID++
				emit("\n{\"name\":\"batch\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
					flowID, p.tid, p.ts)
				emit("\n{\"name\":\"batch\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
					flowID, dst.tid, dst.ts)
			}
		}
	}
}

// RegisterSpanMetrics mirrors the span collector's own health into the
// registry (obs.spans.* instruments), so silent drops become visible on
// /debug/vars and in the report. col may be nil.
func RegisterSpanMetrics(reg *Registry, col *SpanCollector) {
	if reg == nil {
		return
	}
	dropped := reg.Counter("obs.spans.dropped")
	total := reg.Counter("obs.spans.total")
	traces := reg.Gauge("obs.spans.traces")
	reg.AddPublisher("obs.", func() {
		dropped.Set(col.Dropped())
		total.Set(col.Total())
		traces.Set(int64(col.TraceCount()))
	})
}
