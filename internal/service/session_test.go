package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/plf"
)

// newSmallSession creates an in-RAM session over a small alignment: no
// governor resize ever takes it.
func newSmallSession(t *testing.T) (*Server, *Session) {
	t.Helper()
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 120, 41)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	ses, err := srv.CreateSession(baseSession("b", alnPath))
	if err != nil {
		t.Fatal(err)
	}
	return srv, ses
}

// holdSession takes the session until the returned release is called,
// so a test can queue requests behind a busy session.
func holdSession(t *testing.T, ses *Session) (release func()) {
	t.Helper()
	if err := ses.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ses.release
}

// evaluateAll fires one Evaluate per edge on its own goroutine; the
// replies are in once the returned WaitGroup finishes.
func evaluateAll(ses *Session, edges ...int) ([]EvalReply, []error, *sync.WaitGroup) {
	replies, errs := make([]EvalReply, len(edges)), make([]error, len(edges))
	var wg sync.WaitGroup
	for i, edge := range edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i], errs[i] = ses.Evaluate(EvalSpec{Edge: edge})
		}()
	}
	return replies, errs, &wg
}

// waitQueued blocks until n goroutines wait inside Session.EvaluateCtx:
// while the session is held, a waiter is blocked sending into its
// semaphore, and none can move on.
func waitQueued(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, "(*Session).EvaluateCtx") &&
				(strings.Contains(header, "[select") || strings.Contains(header, "[chan")) {
				got++
			}
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d evaluates queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherCloseRejectsSubmit pins teardown: an evaluate after
// Server.Close fails with ErrSessionClosed instead of hanging, and
// Close is idempotent.
func TestBatcherCloseRejectsSubmit(t *testing.T) {
	srv, ses := newSmallSession(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := ses.Evaluate(EvalSpec{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Evaluate after Close: err = %v, want ErrSessionClosed", err)
	}
}

// TestBatcherExecutorDrop pins the no-hang guarantee: when the session
// cannot run an evaluate at all (the parked session's checkpoint is
// gone, so it cannot revive), every evaluate queued for it is still
// answered, with the revive's error.
func TestBatcherExecutorDrop(t *testing.T) {
	const n = 4
	srv, ses := newSmallSession(t)
	if err := srv.ParkSession("b"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ses.ckptPath); err != nil {
		t.Fatal(err)
	}

	release := holdSession(t, ses)
	replies, errs, wg := evaluateAll(ses, 0, 1, 2, 3)
	waitQueued(t, n)
	release()
	wg.Wait()

	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "reviving") {
			t.Errorf("evaluate %d: reply %+v, err %v; want the revive's error", i, replies[i], err)
		}
	}
}

// TestServiceCloseRacingEvaluates: evaluates racing Server.Close are
// each answered or refused with ErrSessionClosed, and none revives the
// session Close parked — it parks once and ends closed with no engine.
func TestServiceCloseRacingEvaluates(t *testing.T) {
	const clients = 4
	srv, ses := newSmallSession(t)

	errs := make([]error, clients)
	started := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; errs[c] == nil; i++ {
				_, errs[c] = ses.Evaluate(EvalSpec{Edge: (c + i) % 5})
				if i == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	for range clients {
		<-started
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for c, err := range errs {
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("client %d ended with %v, want ErrSessionClosed", c, err)
		}
	}
	info := ses.infoSnapshot()
	ses.mu.Lock()
	live := ses.run != nil
	ses.mu.Unlock()
	if info.State != "closed" || live || info.Parks != 1 || info.Revives != 0 {
		t.Errorf("after Close: state %s, engine live %v, %d parks, %d revives; want closed, no engine, 1 park, 0 revives",
			info.State, live, info.Parks, info.Revives)
	}
	if _, err := os.Stat(ses.ckptPath); err != nil {
		t.Errorf("Close left no checkpoint: %v", err)
	}
}

// TestRequestTimeoutBoundsEveryRoute: -request-timeout bounds every
// /v1 route that takes the session. While the session is held, each
// waits only out its deadline and answers 503 + Retry-After; an
// evaluate whose deadline passes mid-traversal answers 503 too, and
// leaves nothing the next evaluate does not recompute — in RAM, and out
// of core over a remote tier, where write-backs may be in flight.
func TestRequestTimeoutBoundsEveryRoute(t *testing.T) {
	const timeout = 200 * time.Millisecond
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 10, 200, 43)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	for _, medium := range []string{"ram", "remote"} {
		t.Run(medium, func(t *testing.T) {
			scfg := ServerConfig{DataDir: t.TempDir(), RequestTimeout: timeout}
			cfg := baseSession("rt", alnPath)
			if medium == "remote" {
				scfg.StoreURL, scfg.CacheBytes = "remote://"+rsrv.Addr(), 2*vecBytes
				cfg.MemLimit = need / 2
				cfg.Kernel = plf.KernelGeneric // full-width records: the walk evicts
			}
			checkRequestTimeout(t, newTestServer(t, scfg), cfg, timeout)
		})
	}
}

func checkRequestTimeout(t *testing.T, srv *Server, cfg SessionConfig, timeout time.Duration) {
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	c.SetRetryBudget(0)
	if _, err := c.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Evaluate("rt", EvalSpec{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	ses, _ := srv.Session("rt")

	call := func(method, path, body string) (*http.Response, time.Duration) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+"/v1/sessions/rt/"+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, time.Since(start)
	}
	release := holdSession(t, ses)
	for _, r := range []struct{ method, path, body string }{
		{http.MethodPost, "evaluate", `{}`},
		{http.MethodPost, "optimize", `{}`},
		{http.MethodGet, "tree", ``},
		{http.MethodPost, "park", ``},
	} {
		resp, took := call(r.method, r.path, r.body)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s behind a held session: status %d, Retry-After %q; want 503 with Retry-After",
				r.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if took >= 2*timeout {
			t.Errorf("%s behind a held session answered after %v, want under %v", r.path, took, 2*timeout)
		}
	}
	// Each newview now sleeps a quarter of the timeout, so a full
	// traversal outlasts the deadline.
	ses.run.Engine.SetSafePoint(func() error {
		time.Sleep(timeout / 4)
		return nil
	})
	release()

	if resp, _ := call(http.MethodPost, "evaluate", `{"full":true}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("evaluate past its deadline mid-traversal: status %d, want 503", resp.StatusCode)
	}
	release = holdSession(t, ses)
	ses.run.Engine.SetSafePoint(nil)
	release()
	rep, err := c.Evaluate("rt", EvalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LnLBits != ref.LnLBits {
		t.Errorf("evaluate after an interrupted one: lnl_bits %s, want the one-shot %s", rep.LnLBits, ref.LnLBits)
	}
}
