package service

// Network-fault tests for the service layer: client retry honoring
// Retry-After, the 503 error mapping, and the /readyz cycle across a
// remote-tier partition and recovery.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
)

// TestClientRetriesIdempotentOn503 pins satellite 2: a 503 with a
// Retry-After hint is retried (for idempotent requests only), sleeping
// what the server asked for, inside a capped budget.
func TestClientRetriesIdempotentOn503(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: "shedding"})
			return
		}
		writeJSON(w, http.StatusOK, EvalReply{LnL: -42})
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	rep, err := c.Evaluate("s", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatalf("evaluate with retries: %v", err)
	}
	if rep.LnL != -42 {
		t.Errorf("LnL = %v", rep.LnL)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d requests, want 3 (1 + 2 retries)", calls.Load())
	}
	if len(slept) != 2 || slept[0] != time.Second || slept[1] != time.Second {
		t.Errorf("client slept %v, want [1s 1s] from Retry-After", slept)
	}
}

func TestClientRetryBudgetAndNonIdempotent(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: "down"})
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.sleep = func(time.Duration) {}

	// Idempotent: budget-bounded retries, then the error surfaces.
	if _, err := c.Evaluate("s", EvalSpec{Edge: 1}); err == nil {
		t.Fatal("persistent 503 must eventually fail")
	}
	if calls.Load() != int64(1+DefaultClientRetries) {
		t.Errorf("server saw %d requests, want %d", calls.Load(), 1+DefaultClientRetries)
	}

	// Mutating request: one attempt, no retries.
	calls.Store(0)
	if _, err := c.Park("s"); err == nil {
		t.Fatal("park against a 503 must fail")
	}
	if calls.Load() != 1 {
		t.Errorf("non-idempotent request retried: %d attempts", calls.Load())
	}

	// Budget zero disables retries outright.
	calls.Store(0)
	c.SetRetryBudget(0)
	c.Evaluate("s", EvalSpec{Edge: 1})
	if calls.Load() != 1 {
		t.Errorf("retry budget 0 still retried: %d attempts", calls.Load())
	}
}

// TestClientRetriesTransportFailure covers the connection-drop arm: no
// response at all is as retryable as a 503.
func TestClientRetriesTransportFailure(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // drop before any response bytes
			return
		}
		writeJSON(w, http.StatusOK, EvalReply{LnL: -7})
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.sleep = func(time.Duration) {}
	rep, err := c.Evaluate("s", EvalSpec{Edge: 0})
	if err != nil {
		t.Fatalf("evaluate across a dropped connection: %v", err)
	}
	if rep.LnL != -7 || calls.Load() != 2 {
		t.Errorf("LnL=%v after %d calls", rep.LnL, calls.Load())
	}
}

// TestWriteErrMapping pins the HTTP status mapping for the fault
// taxonomy: remote-tier conditions are 503 + Retry-After (retryable),
// a closed session is 409, everything else 400.
func TestWriteErrMapping(t *testing.T) {
	srv := newTestServer(t, ServerConfig{DataDir: t.TempDir()})
	cases := []struct {
		err        error
		status     int
		retryAfter string
	}{
		{fmt.Errorf("read: %w", ooc.ErrCircuitOpen), http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("read: %w", ooc.ErrTransientIO), http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("evaluate: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, "1"},
		{ErrSessionClosed, http.StatusConflict, ""},
		{errors.New("bad spec"), http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		srv.writeErr(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("writeErr(%v) = HTTP %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("writeErr(%v) Retry-After = %q, want %q", tc.err, got, tc.retryAfter)
		}
		var rep errorReply
		if err := json.NewDecoder(rec.Body).Decode(&rep); err != nil || rep.Error == "" {
			t.Errorf("writeErr(%v) body not an error envelope: %v", tc.err, err)
		}
	}
}

// TestServiceReadyzDegradedCycle is the service-level partition arc:
// /readyz flips to 503 (naming the degraded session) while the remote
// tier's breaker is open, evaluates still answer 200 and bit-identical
// (nothing is shed: what the remote refuses waits in the cache file),
// /healthz stays 200 throughout (the process is alive, just degraded),
// and after the partition lifts /readyz's own probe nudge recloses the
// breaker — with the session answering bit-identically across the whole
// arc.
func TestServiceReadyzDegradedCycle(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 12, 300, 17)

	chaos := iosim.NewChaos(iosim.ChaosConfig{})
	chaos.Disable()
	rsrv, err := remote.NewServer(remote.ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	srv := newTestServer(t, ServerConfig{
		DataDir:        dir,
		StoreURL:       "remote://" + rsrv.Addr(),
		CacheBytes:     4 * vecBytes, // tiny cache: evictions go remote
		RemoteDeadline: 100 * time.Millisecond,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cfg := baseSession("wan", alnPath)
	cfg.MemLimit = need / 2
	if cfg.MemLimit < int64(ooc.MinSlots)*vecBytes {
		t.Fatal("dataset too small to go out of core")
	}
	ses, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ses.Evaluate(EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string, string) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
	}
	if code, body, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz while healthy: HTTP %d %s", code, body)
	}

	// Partition the remote tier and drive traffic until the breaker
	// opens and a refused dirty eviction overflows the cache.
	chaos.Enable()
	chaos.SetPartition(true)
	tier := ses.tierStore()
	if tier == nil {
		t.Fatal("remote session has no tier store")
	}
	deadline := time.Now().Add(30 * time.Second)
	for edge := 2; ; edge++ {
		if _, err := ses.Evaluate(EvalSpec{Edge: edge%8 + 1, Full: true}); err != nil {
			t.Fatalf("evaluate during partition: %v", err)
		}
		if st := tier.Stats(); st.Degraded && st.Overflow > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never degraded with a refused write-back: %+v", tier.Stats())
		}
	}

	code, body, retryAfter := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while partitioned: HTTP %d %s", code, body)
	}
	if !strings.Contains(body, "wan") {
		t.Errorf("/readyz body does not name the degraded session: %s", body)
	}
	if retryAfter != "1" {
		t.Errorf("/readyz Retry-After = %q, want 1", retryAfter)
	}
	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during partition: HTTP %d (liveness must not follow readiness)", code)
	}

	// Degraded is not refused: an evaluate answers, bit-identically.
	resp, err := http.Post(hs.URL+"/v1/sessions/wan/evaluate", "application/json",
		strings.NewReader(`{"edge":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var during EvalReply
	err = json.NewDecoder(resp.Body).Decode(&during)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("evaluate while degraded: HTTP %d (%v)", resp.StatusCode, err)
	}
	if during.LnLBits != before.LnLBits {
		t.Errorf("likelihood moved during the outage: %s -> %s", before.LnLBits, during.LnLBits)
	}
	if !tier.Degraded() {
		t.Fatalf("the tier healed under a partition: %+v", tier.Stats())
	}

	// Lift the partition: /readyz polls nudge the breaker's half-open
	// probe until it recloses.
	chaos.Disable()
	recovered := false
	for wait := time.Now().Add(30 * time.Second); time.Now().Before(wait); {
		if code, _, _ := get("/readyz"); code == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("/readyz never recovered: %+v", tier.Stats())
	}
	after, err := ses.Evaluate(EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("likelihood moved across the outage: %s -> %s", before.LnLBits, after.LnLBits)
	}
}
