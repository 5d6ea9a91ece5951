package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("ooc.hits").Add(3)
	col := NewSpanCollector(4)
	root := col.StartTrace("run")
	root.EmitChild("ooc.fault_in", time.Now(), time.Millisecond)

	addr, shutdown, err := Serve("127.0.0.1:0", r, col)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return b
	}

	var vars Snapshot
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if vars.Counters["ooc.hits"] != 3 {
		t.Errorf("/debug/vars counters: %v", vars.Counters)
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/trace"), &trace); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("/debug/trace has no events")
	}

	if report := string(get("/debug/report")); len(report) == 0 {
		t.Error("/debug/report is empty")
	}
	if index := string(get("/")); len(index) == 0 {
		t.Error("index page is empty")
	}
}

// TestNewMuxNilInstruments pins the documented nil-safety contract of
// NewMux: with a nil Registry and a nil collector every route must still
// answer 200 with an empty (but well-formed) document, because the CLI
// wires the endpoint unconditionally and only sometimes has a registry.
func TestNewMuxNilInstruments(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil, nil))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, b)
		}
		return b
	}

	// /debug/vars: an empty snapshot, still valid JSON.
	var snap Snapshot
	if err := json.Unmarshal(get("/debug/vars"), &snap); err != nil {
		t.Errorf("/debug/vars with nil registry is not JSON: %v", err)
	}
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("/debug/vars with nil registry is not empty: %+v", snap)
	}

	// /debug/report: answers 200; the body is legitimately empty (an
	// empty snapshot has no sections to render).
	get("/debug/report")

	// /debug/trace: a valid Chrome trace document with no events.
	var trace struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/trace"), &trace); err != nil {
		t.Errorf("/debug/trace with nil collector is not JSON: %v", err)
	}
	if len(trace.TraceEvents) != 0 {
		t.Errorf("/debug/trace with nil collector has %d events, want 0", len(trace.TraceEvents))
	}

	// The index and the pprof routes don't touch the instruments but are
	// part of the mounted surface; they must stay reachable.
	for _, path := range []string{"/", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if body := get(path); len(body) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}

	// Unknown paths still 404 (the "/" handler is an index, not a catch-all).
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}
