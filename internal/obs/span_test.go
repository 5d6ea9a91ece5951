package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q: length %d, want 55", h, len(h))
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own format", h)
	}
	if gotT != tid || gotS != sid {
		t.Fatalf("round trip changed ids: %v/%v -> %v/%v", tid, sid, gotT, gotS)
	}
	for _, bad := range []string{
		"",
		"00-" + strings.Repeat("0", 32) + "-" + sid.String() + "-01", // zero trace id
		"01-" + tid.String() + "-" + sid.String() + "-01",            // wrong version
		"00-" + tid.String() + "-" + sid.String() + "-1",             // truncated flags
		"00-zz" + tid.String()[2:] + "-" + sid.String() + "-01",      // bad hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted %q", bad)
		}
	}
}

// TestCostStringAndAdd pins the CLI's Cost: line format and the
// ledger's field-wise sum.
func TestCostStringAndAdd(t *testing.T) {
	c := Cost{
		VectorsFaulted: 12, LocalReads: 7, BytesLocal: 8192,
		RemoteGets: 3, BytesRemote: 16384, BytesPushed: 4096,
		Recomputes: 2, Newviews: 31, PCacheHits: 5,
		WaitMicros: 120, ExecMicros: 4500,
	}
	want := "faults=12;local_reads=7;bytes_local=8192;remote_gets=3;bytes_remote=16384;bytes_pushed=4096;recomputes=2;newviews=31;pcache_hits=5;wait_us=120;exec_us=4500"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	sum := c.Add(Cost{VectorsFaulted: 1, ExecMicros: 10})
	if sum.VectorsFaulted != 13 || sum.ExecMicros != 4510 || sum.Newviews != 31 {
		t.Fatalf("Add: %+v", sum)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	sp.AddCost(Cost{Newviews: 1})
	sp.LinkTo(nil)
	sp.EmitChild("x", time.Now(), time.Millisecond)
	sp.End()
	if child := sp.StartChild("c"); child != nil {
		t.Fatal("nil span produced a non-nil child")
	}
	if sp.Traceparent() != "" {
		t.Fatal("nil span has a traceparent")
	}
	var col *SpanCollector
	if col.StartTrace("x") != nil || col.StartRemoteChild("x", "") != nil {
		t.Fatal("nil collector produced a span")
	}
	if col.Total() != 0 || col.Dropped() != 0 || col.TraceCount() != 0 {
		t.Fatal("nil collector reports nonzero state")
	}
}

func TestSpanCollectorLedgerAndLookup(t *testing.T) {
	col := NewSpanCollector(8)
	root := col.StartTrace("request")
	root.SetAttr("edge", 3)
	child := root.StartChild("fault_in")
	child.AddCost(Cost{VectorsFaulted: 1, BytesRemote: 4096})
	child.End()
	root.AddCost(Cost{Newviews: 9})
	root.EmitChild("evict", time.Now().Add(-time.Millisecond), time.Millisecond,
		Attr{Key: "vid", Int: 7})
	root.End()

	view, ok := col.Trace(root.TraceID().String())
	if !ok {
		t.Fatalf("trace %s not found", root.TraceID())
	}
	if len(view.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3 (root, child, emitted)", len(view.Spans))
	}
	want := Cost{VectorsFaulted: 1, BytesRemote: 4096, Newviews: 9}
	if view.Cost != want {
		t.Fatalf("trace ledger %+v, want %+v", view.Cost, want)
	}
	// The child must point at the root.
	var foundChild bool
	for _, s := range view.Spans {
		if s.Name == "fault_in" {
			foundChild = true
			if s.Parent != root.ID().String() {
				t.Errorf("child parent %q, want %q", s.Parent, root.ID())
			}
		}
	}
	if !foundChild {
		t.Fatal("child span missing from trace view")
	}
	if _, ok := col.Trace("not-a-trace-id"); ok {
		t.Error("lookup of a malformed id succeeded")
	}
}

func TestSpanCollectorEvictionAndDrops(t *testing.T) {
	col := NewSpanCollector(4)
	var first *Span
	for i := 0; i < 6; i++ {
		sp := col.StartTrace(fmt.Sprintf("t%d", i))
		if i == 0 {
			first = sp
		}
		sp.End()
	}
	if col.TraceCount() != 4 {
		t.Fatalf("collector holds %d traces, want 4", col.TraceCount())
	}
	if _, ok := col.Trace(first.TraceID().String()); ok {
		t.Error("oldest trace survived eviction")
	}
	if col.Dropped() == 0 {
		t.Error("eviction did not count dropped spans")
	}
	// A span landing after its trace was evicted is dropped, not lost
	// silently.
	before := col.Dropped()
	first.StartChild("late").End()
	if col.Dropped() != before+1 {
		t.Errorf("late span: dropped %d, want %d", col.Dropped(), before+1)
	}
}

// TestSpanCollectorTraceCapKeepsNewest pins the collector's ring
// behaviour within one trace: past its cap a trace overwrites its own
// oldest spans, so a long run keeps its tail, and every overwrite is
// counted as dropped.
func TestSpanCollectorTraceCapKeepsNewest(t *testing.T) {
	const extra = 5
	col := NewSpanCollector(4)
	root := col.StartTrace("run")
	base := time.Now()
	for i := 0; i < DefaultMaxSpansPerTrace+extra; i++ {
		root.EmitChild("op", base.Add(time.Duration(i)), 0, Attr{Key: "i", Int: int64(i)})
	}
	if col.Dropped() != extra {
		t.Errorf("Dropped=%d, want %d", col.Dropped(), extra)
	}
	view, ok := col.Trace(root.TraceID().String())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(view.Spans) != DefaultMaxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want the cap %d", len(view.Spans), DefaultMaxSpansPerTrace)
	}
	for k, s := range view.Spans {
		if want := int64(extra + k); s.Attrs[0].Int != want {
			t.Fatalf("span %d is #%d, want #%d (the newest cap spans, oldest first)", k, s.Attrs[0].Int, want)
		}
	}
}

// TestWriteChromeTrace checks the export's row layout: each (trace,
// lane) pair gets its own thread_name row, lane-less spans sit on the
// trace's lane-0 row, and a zero-length span is still a complete event.
func TestWriteChromeTrace(t *testing.T) {
	col := NewSpanCollector(4)
	root := col.StartTrace("run")
	base := time.Now()
	root.EmitChild("ooc.fault_in", base, 150*time.Microsecond, Attr{Key: "vid", Int: 7})
	root.EmitChild("pipe.fetch", base.Add(time.Millisecond), 90*time.Microsecond, Attr{Key: LaneAttr, Int: 1})
	root.EmitChild("pipe.write_back", base.Add(time.Millisecond), 90*time.Microsecond, Attr{Key: LaneAttr, Int: 3})
	root.EmitChild("plf.recovery", base.Add(2*time.Millisecond), 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	rows := map[float64]string{}
	spanRow := map[string]float64{}
	for _, e := range doc.TraceEvents {
		tid, _ := e["tid"].(float64)
		switch e["ph"] {
		case "M":
			rows[tid] = e["args"].(map[string]any)["name"].(string)
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Errorf("span event missing dur: %v", e)
			}
			spanRow[e["name"].(string)] = tid
		}
	}
	if len(rows) != 3 || len(spanRow) != 4 {
		t.Fatalf("got %d rows and %d spans, want 3 and 4:\n%s", len(rows), len(spanRow), buf.String())
	}
	prefix := "trace " + root.TraceID().String()[:8]
	for name, want := range map[string]string{
		"ooc.fault_in":    prefix,
		"plf.recovery":    prefix,
		"pipe.fetch":      prefix + " lane 1",
		"pipe.write_back": prefix + " lane 3",
	} {
		if got := rows[spanRow[name]]; got != want {
			t.Errorf("%s drawn on row %q, want %q", name, got, want)
		}
	}
}

// TestWriteChromeTraceNilCollector: the export of nothing is still a
// valid, empty Chrome trace document.
func TestWriteChromeTraceNilCollector(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil collector must still emit valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil collector exported %d events", len(doc.TraceEvents))
	}
}

func TestStartRemoteChildContinuesTrace(t *testing.T) {
	col := NewSpanCollector(8)
	header, traceID := NewTraceparent()
	sp := col.StartRemoteChild("http", header)
	if sp.TraceID().String() != traceID {
		t.Fatalf("remote child trace %s, want %s", sp.TraceID(), traceID)
	}
	sp.End()
	if _, ok := col.Trace(traceID); !ok {
		t.Fatal("continued trace not registered")
	}
	// Malformed header: a fresh trace, not a nil span.
	sp2 := col.StartRemoteChild("http", "garbage")
	if sp2 == nil || sp2.TraceID().IsZero() {
		t.Fatal("malformed traceparent did not start a fresh trace")
	}
}

func TestWriteChromeTraceSpansAndFlows(t *testing.T) {
	col := NewSpanCollector(8)
	a := col.StartTrace("request-a")
	pass := a.StartChild("engine_pass")
	b := col.StartTrace("request-b")
	b.LinkTo(pass)
	pass.End()
	a.End()
	b.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, flowS, flowF int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if spans != 3 {
		t.Errorf("chrome trace has %d complete spans, want 3", spans)
	}
	if flowS != 1 || flowF != 1 {
		t.Errorf("flow events s=%d f=%d, want 1/1 (the LinkTo arrow)", flowS, flowF)
	}
}

// TestConcurrentScrapeSpansAndDrain hammers span creation, Prometheus
// scraping and Chrome trace export from racing goroutines — the -race
// acceptance for the whole exposition path.
func TestConcurrentScrapeSpansAndDrain(t *testing.T) {
	reg := NewRegistry()
	col := NewSpanCollector(8)
	RegisterSpanMetrics(reg, col)
	// The daemon's SLIs: a request counter and the request-latency
	// histogram, written by the workers while the scrapers read them.
	reqs := reg.Counter("svc.http.requests")
	lat := reg.Histogram("svc.request_seconds", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := col.StartTrace("req")
				sp.SetAttr("g", int64(g))
				child := sp.StartChild("work")
				child.AddCost(Cost{Newviews: 1})
				child.End()
				sp.EmitChild("ooc.fault_in", time.Now(), time.Microsecond, Attr{Key: LaneAttr, Int: int64(i % 8)})
				sp.End()
				reqs.Inc()
				lat.Observe(0.3)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				var trace bytes.Buffer
				if err := WriteChromeTrace(&trace, col); err != nil {
					t.Errorf("WriteChromeTrace: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if col.Total() == 0 {
		t.Fatal("no spans recorded")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"obs_spans_total", "svc_http_requests_total", `svc_request_seconds_bucket{le="0.5"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}
}
