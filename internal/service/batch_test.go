package service

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newBatchSession creates an in-RAM session over a small alignment:
// its loop is the only goroutine that answers evaluates, and no
// governor resize ever queues a job on it.
func newBatchSession(t *testing.T) (*Server, *Session) {
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

// holdLoop parks the session loop inside a do job until the returned
// release is called, so a test can queue evaluates behind a busy loop.
func holdLoop(ses *Session) (release func()) {
	entered, rel := make(chan struct{}), make(chan struct{})
	go ses.do(func() error {
		close(entered)
		<-rel
		return nil
	})
	<-entered
	return func() { close(rel) }
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

// waitParked blocks until n goroutines are parked inside
// Session.EvaluateCtx: while the loop is held it receives nothing, so
// a parked submitter is queued on the submit channel, and none can
// move on.
func waitParked(t *testing.T, n int) {
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
			t.Fatalf("%d submitters parked, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// batchSizes returns the size of every batch the replies rode, in
// batch order, checking that each batch's replies agree on its size.
func batchSizes(t *testing.T, replies []EvalReply) []int {
	t.Helper()
	count, size := map[int64]int{}, map[int64]int{}
	var first, last int64 = -1, -1
	for _, rep := range replies {
		count[rep.Batch]++
		size[rep.Batch] = rep.BatchSize
		if first < 0 || rep.Batch < first {
			first = rep.Batch
		}
		last = max(last, rep.Batch)
	}
	var sizes []int
	for seq := first; seq <= last; seq++ {
		if count[seq] != size[seq] {
			t.Errorf("batch %d: %d replies report size %d", seq, count[seq], size[seq])
		}
		sizes = append(sizes, count[seq])
	}
	return sizes
}

// TestBatcherGroupCommit pins the batching rule: a lone evaluate runs
// as a batch of one, and every evaluate made while the loop is busy
// rides the next batch, so the two execute as sizes [1, n].
func TestBatcherGroupCommit(t *testing.T) {
	const n = 8
	_, ses := newBatchSession(t)
	lone, err := ses.Evaluate(EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}

	release := holdLoop(ses)
	replies, errs, wg := evaluateAll(ses, 0, 1, 2, 3, 4, 5, 6, 7)
	waitParked(t, n)
	release()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("evaluate %d: %v", i, err)
		}
		if replies[i].Edge != i {
			t.Errorf("reply edge %d, want %d", replies[i].Edge, i)
		}
	}
	got := append([]int{lone.BatchSize}, batchSizes(t, replies)...)
	if len(got) != 2 || got[0] != 1 || got[1] != n || replies[0].Batch != lone.Batch+1 {
		t.Errorf("batch sizes %v (batches %d then %d), want [1 %d] back to back", got, lone.Batch, replies[0].Batch, n)
	}
}

// TestBatcherLoneSubmissionRunsAtOnce pins that no clock releases a
// batch: a lone evaluate to an idle loop runs as a batch of one while
// no other evaluate exists. Back to back, each is its own batch; 500 of
// them would need 1 s under even a 2 ms collect window.
func TestBatcherLoneSubmissionRunsAtOnce(t *testing.T) {
	const n = 500
	_, ses := newBatchSession(t)

	start := time.Now()
	var firstBatch int64
	for i := 0; i < n; i++ {
		rep, err := ses.Evaluate(EvalSpec{Edge: i % 5})
		if err != nil {
			t.Fatalf("Evaluate(%d): %v", i, err)
		}
		if rep.BatchSize != 1 {
			t.Fatalf("lone evaluate %d rode a batch of %d", i, rep.BatchSize)
		}
		if i == 0 {
			firstBatch = rep.Batch
		} else if rep.Batch != firstBatch+int64(i) {
			t.Fatalf("lone evaluate %d rode batch %d, want %d", i, rep.Batch, firstBatch+int64(i))
		}
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("%d lone evaluates took %v: something waits before a batch runs", n, elapsed)
	}
}

// TestBatcherSizeFlushSplits pins the cap: more evaluates than it
// queued behind a busy loop split into full batches, and every one is
// answered.
func TestBatcherSizeFlushSplits(t *testing.T) {
	const n = 2*maxBatch + 1
	_, ses := newBatchSession(t)
	edges := make([]int, n)
	for i := range edges {
		edges[i] = i % 5
	}

	release := holdLoop(ses)
	replies, errs, wg := evaluateAll(ses, edges...)
	waitParked(t, n)
	release()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("evaluate %d: %v", i, err)
		}
	}
	got := batchSizes(t, replies)
	if len(got) != 3 || got[0] != maxBatch || got[1] != maxBatch || got[2] != 1 {
		t.Errorf("batch sizes %v, want [%d %d 1]", got, maxBatch, maxBatch)
	}
}

// TestBatcherCloseRejectsSubmit pins teardown: an evaluate after
// Server.Close fails with ErrSessionClosed instead of hanging, and
// Close is idempotent.
func TestBatcherCloseRejectsSubmit(t *testing.T) {
	srv, ses := newBatchSession(t)
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

// TestBatcherExecutorDrop pins the no-hang guarantee: when execBatch
// cannot run a batch at all (the parked session's checkpoint is gone,
// so it cannot revive), every evaluate in it is still answered, with
// the revive's error.
func TestBatcherExecutorDrop(t *testing.T) {
	const n = 4
	srv, ses := newBatchSession(t)
	if err := srv.ParkSession("b"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ses.ckptPath); err != nil {
		t.Fatal(err)
	}

	release := holdLoop(ses)
	replies, errs, wg := evaluateAll(ses, 0, 1, 2, 3)
	waitParked(t, n)
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
	srv, ses := newBatchSession(t)

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
