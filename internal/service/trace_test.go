package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"oocphylo/internal/obs"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/plf"
)

// TestServiceTracedEvaluateEndToEnd is the tentpole's acceptance test:
// one traced client evaluate against a daemon backed by a starved tiered
// cache over a loopback object store must yield a single trace spanning
// HTTP handler → engine pass → PLF kernels → OOC manager → tiered cache
// → remote object HTTP, with a cost ledger that agrees with the store
// counters — while untraced requests on the same wire carry no trace
// fields at all and answer bit-identically.
func TestServiceTracedEvaluateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 24, 300, 23)

	// The object server keeps its own collector (it is a separate
	// process in production); trace continuity across it is purely via
	// the traceparent header on each GET/PUT.
	objSpans := obs.NewSpanCollector(64)
	rsrv, err := remote.NewServer(remote.ServerConfig{Spans: objSpans})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	srv := newTestServer(t, ServerConfig{
		DataDir:    dir,
		StoreURL:   "remote://" + rsrv.Addr(),
		CacheBytes: 4 * vecBytes, // four cached vectors: constant remote churn
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := NewClient(hs.URL)
	cfg := baseSession("tr", alnPath)
	cfg.MemLimit = need / 2
	// Generic kernels keep every record full width, so half the vectors
	// fit the pool and evaluates keep faulting through the starved cache.
	cfg.Kernel = plf.KernelGeneric
	if _, err := c.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}

	// Untraced baseline: the reply must carry no trace fields — the
	// whole span path is off.
	base, err := c.Evaluate("tr", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.TraceID != "" || base.Cost != nil {
		t.Fatalf("untraced reply carries trace fields: %+v", base)
	}

	// Traced evaluates across several edges: every reply gets a trace id
	// and a per-request cost ledger.
	c.SetTrace(true)
	var total obs.Cost
	var traced []EvalReply
	for _, edge := range []int{0, 4, 8, 12, 16, 20, 2, 6, 10, 1} {
		rep, err := c.Evaluate("tr", EvalSpec{Edge: edge})
		if err != nil {
			t.Fatalf("traced evaluate edge %d: %v", edge, err)
		}
		if rep.TraceID == "" || rep.Cost == nil {
			t.Fatalf("traced reply missing trace fields: %+v", rep)
		}
		if edge == 1 && rep.LnLBits != base.LnLBits {
			t.Errorf("tracing changed the likelihood: %s != %s", rep.LnLBits, base.LnLBits)
		}
		total = total.Add(*rep.Cost)
		traced = append(traced, rep)
	}
	if total.Newviews == 0 || total.ExecMicros == 0 {
		t.Fatalf("cost totals show no engine work: %+v", total)
	}
	if total.VectorsFaulted == 0 {
		t.Errorf("no faults attributed despite the out-of-core quota: %+v", total)
	}
	if total.RemoteGets == 0 || total.BytesRemote == 0 {
		t.Errorf("no remote traffic attributed despite the starved cache: %+v", total)
	}

	// Attribution never exceeds what the store counters saw in total
	// (the counters also cover the untraced baseline and warmup).
	ses, ok := srv.Session("tr")
	if !ok {
		t.Fatal("session lost")
	}
	ms := ses.run.Manager.Stats()
	ts := ses.tierStore().Stats()
	if total.VectorsFaulted > ms.Misses {
		t.Errorf("attributed faults %d exceed manager misses %d", total.VectorsFaulted, ms.Misses)
	}
	if total.RemoteGets > ts.RemoteReads || total.BytesRemote > ts.BytesFetched {
		t.Errorf("attributed remote traffic (%d gets, %d B) exceeds tier totals (%d, %d)",
			total.RemoteGets, total.BytesRemote, ts.RemoteReads, ts.BytesFetched)
	}

	// Pick a request that touched the remote tier and walk its trace:
	// every layer must appear, and the trace ledger must equal the
	// reply's cost exactly (one request == one trace).
	var rich EvalReply
	for _, r := range traced {
		if r.Cost.RemoteGets > 0 {
			rich = r
			break
		}
	}
	if rich.TraceID == "" {
		t.Fatal("no traced request touched the remote tier")
	}
	view, ok := srv.Spans().Trace(rich.TraceID)
	if !ok {
		t.Fatalf("trace %s not held by the daemon collector", rich.TraceID)
	}
	if view.Cost != *rich.Cost {
		t.Errorf("trace ledger %+v != reply cost %+v", view.Cost, *rich.Cost)
	}
	names := map[string]bool{}
	for _, s := range view.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{
		"http POST /v1/sessions/{name}/evaluate",
		"svc.engine_pass",
		"svc.batch_wait",
		"plf.evaluate",
		"ooc.fault_in",
		"tier.remote_get",
	} {
		if !names[want] {
			t.Errorf("trace %s missing span %q (has %v)", rich.TraceID, want, names)
		}
	}
	// The last hop: the object server recorded spans under the SAME
	// trace id, carried over the wire by the traceparent header.
	objView, ok := objSpans.Trace(rich.TraceID)
	if !ok {
		t.Fatalf("object server holds no spans for trace %s", rich.TraceID)
	}
	var sawGet bool
	for _, s := range objView.Spans {
		if s.Name == "obj.get" {
			sawGet = true
		}
	}
	if !sawGet {
		t.Errorf("object server trace %s has no obj.get span: %+v", rich.TraceID, objView.Spans)
	}
}

// TestServiceTraceHeaders pins the wire format: a raw request with a
// minted traceparent gets X-OOC-Trace echoing the trace id, and its
// cost ledger travels once, in the JSON reply.
func TestServiceTraceHeaders(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 10, 200, 29)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	if _, err := c.CreateSession(baseSession("hdr", alnPath)); err != nil {
		t.Fatal(err)
	}

	header, traceID := obs.NewTraceparent()
	body, _ := json.Marshal(EvalSpec{Edge: 0})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/sessions/hdr/evaluate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-OOC-Trace"); got != traceID {
		t.Errorf("X-OOC-Trace %q, want %q", got, traceID)
	}
	var rep EvalReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != traceID {
		t.Errorf("reply trace id %q, want %q", rep.TraceID, traceID)
	}
	if rep.Cost == nil {
		t.Fatal("traced reply has no cost")
	}
	if got := resp.Header.Get("X-OOC-Cost"); got != "" {
		t.Errorf("cost ledger copied into an X-OOC-Cost header %q", got)
	}
}

// TestCostSnapshotSubCountsRecoveries pins the ledger's recompute
// column to the engine's read recoveries: a request that rebuilt a
// corrupt vector, or one unreadable while the remote tier was down,
// must not report recomputes=0.
func TestCostSnapshotSubCountsRecoveries(t *testing.T) {
	before := costSnapshot{eng: plf.Stats{Recoveries: 2, Newviews: 10}}
	after := costSnapshot{eng: plf.Stats{Recoveries: 5, Newviews: 19}}
	if c := after.sub(before); c.Recomputes != 3 || c.Newviews != 9 {
		t.Errorf("cost = %+v, want recomputes 3 and newviews 9", c)
	}
}
