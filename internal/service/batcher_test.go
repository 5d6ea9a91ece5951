package service

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingExec fills every job and records the size of each batch it
// was handed.
type recordingExec struct {
	mu    sync.Mutex
	sizes []int
}

func (r *recordingExec) exec(batch []*evalJob) {
	r.mu.Lock()
	r.sizes = append(r.sizes, len(batch))
	r.mu.Unlock()
	for _, j := range batch {
		j.res = EvalReply{Edge: j.spec.Edge, LnL: -1, LnLBits: FormatLnLBits(-1), BatchSize: len(batch)}
	}
}

func (r *recordingExec) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.sizes...)
}

// heldExec is a recordingExec whose first batch blocks in the
// executor until release is closed, so a test can queue submissions
// behind a pass in flight. Only the loop goroutine calls exec.
type heldExec struct {
	recordingExec
	entered chan struct{} // closed when the first batch reaches exec
	release chan struct{}
	held    bool
}

func newHeldExec() *heldExec {
	return &heldExec{entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldExec) exec(batch []*evalJob) {
	if !h.held {
		h.held = true
		close(h.entered)
		<-h.release
	}
	h.recordingExec.exec(batch)
}

// submitAll fires one Submit per edge on its own goroutine; the
// returned WaitGroup finishes when every reply is in.
func submitAll(t *testing.T, b *Batcher, edges ...int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, edge := range edges {
		wg.Add(1)
		go func(edge int) {
			defer wg.Done()
			rep, err := b.Submit(EvalSpec{Edge: edge})
			if err != nil {
				t.Errorf("Submit(%d): %v", edge, err)
			} else if rep.Edge != edge {
				t.Errorf("reply edge %d, want %d", rep.Edge, edge)
			}
		}(edge)
	}
	return &wg
}

// waitParked blocks until n goroutines are parked inside
// Batcher.SubmitCtx: while the executor is held the loop receives
// nothing, so a parked submitter is either waiting on its reply or
// queued on the submit channel, and none can move on.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, "(*Batcher).SubmitCtx") &&
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

// TestBatcherGroupCommit pins the flush rule: every submission made
// while a pass is in flight rides the next batch, so a held first
// batch and n submissions queued behind it execute as sizes [1, n].
func TestBatcherGroupCommit(t *testing.T) {
	const n = 8
	h := newHeldExec()
	b := newBatcher(maxBatch, h.exec)
	defer b.Close()

	first := submitAll(t, b, 100)
	<-h.entered
	rest := submitAll(t, b, 0, 1, 2, 3, 4, 5, 6, 7)
	waitParked(t, n+1)
	close(h.release)
	first.Wait()
	rest.Wait()

	if got := h.batchSizes(); !reflect.DeepEqual(got, []int{1, n}) {
		t.Errorf("batch sizes %v, want [1 %d]", got, n)
	}
}

// TestBatcherLoneSubmissionRunsAtOnce pins that no clock releases a
// batch: a lone submission to an idle batcher reaches the executor as
// a batch of one while no other submission exists. Back to back, each
// is its own batch; 500 of them would need 1 s under even a 2 ms
// collect window.
func TestBatcherLoneSubmissionRunsAtOnce(t *testing.T) {
	const n = 500
	rec := &recordingExec{}
	b := newBatcher(maxBatch, rec.exec)
	defer b.Close()

	start := time.Now()
	for i := 0; i < n; i++ {
		rep, err := b.Submit(EvalSpec{Edge: i})
		if err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		if rep.BatchSize != 1 {
			t.Fatalf("lone submission %d rode a batch of %d", i, rep.BatchSize)
		}
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("%d lone submissions took %v: something waits before a flush", n, elapsed)
	}
	if got := len(rec.batchSizes()); got != n {
		t.Errorf("%d batches for %d lone submissions", got, n)
	}
}

// TestBatcherSizeFlushSplits pins the cap: more submissions than it
// queued behind a held pass split into full batches, and every one is
// answered.
func TestBatcherSizeFlushSplits(t *testing.T) {
	h := newHeldExec()
	b := newBatcher(2, h.exec)
	defer b.Close()

	first := submitAll(t, b, 100)
	<-h.entered
	rest := submitAll(t, b, 0, 1, 2, 3, 4, 5)
	waitParked(t, 7)
	close(h.release)
	first.Wait()
	rest.Wait()

	if got := h.batchSizes(); !reflect.DeepEqual(got, []int{1, 2, 2, 2}) {
		t.Errorf("batch sizes %v, want [1 2 2 2]", got)
	}
}

// TestBatcherCloseRejectsSubmit pins teardown: Submit after Close fails
// with ErrSessionClosed instead of hanging, and Close is idempotent.
func TestBatcherCloseRejectsSubmit(t *testing.T) {
	rec := &recordingExec{}
	b := newBatcher(maxBatch, rec.exec)
	b.Close()
	b.Close() // idempotent

	if _, err := b.Submit(EvalSpec{}); err != ErrSessionClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrSessionClosed", err)
	}
}

// TestBatcherExecutorDrop pins the no-hang guarantee: an executor that
// forgets to fill a job still releases the waiter, with an error.
func TestBatcherExecutorDrop(t *testing.T) {
	b := newBatcher(maxBatch, func(batch []*evalJob) {})
	defer b.Close()

	_, err := b.Submit(EvalSpec{Edge: 1})
	if err == nil {
		t.Fatal("Submit returned nil error from an executor that dropped the request")
	}
}
