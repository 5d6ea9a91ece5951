package ooc

// Fault-path tests for the tiered store: dirty evictions surviving a
// permanent remote PUT outage via the spill journal, breaker-driven
// degraded mode and recovery, and the full-jitter retry policy.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyRemote is a Store whose failure modes the test controls. It is
// deliberately NOT a RangeStore, so the tier's per-vector fallback path
// gets exercised too.
type flakyRemote struct {
	mu         sync.Mutex
	vecLen     int
	data       map[int][]float64
	failReads  bool
	failWrites bool
	reads      atomic.Int64
	writes     atomic.Int64
}

func newFlakyRemote(vecLen int) *flakyRemote {
	return &flakyRemote{vecLen: vecLen, data: make(map[int][]float64)}
}

func (r *flakyRemote) setFailWrites(on bool) {
	r.mu.Lock()
	r.failWrites = on
	r.mu.Unlock()
}

func (r *flakyRemote) setFailReads(on bool) {
	r.mu.Lock()
	r.failReads = on
	r.mu.Unlock()
}

func (r *flakyRemote) get(vi int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := make([]float64, r.vecLen)
	copy(v, r.data[vi])
	return v
}

func (r *flakyRemote) Close() error { return nil }

func (r *flakyRemote) ReadVector(vi int, dst []float64) error {
	r.reads.Add(1)
	r.mu.Lock()
	fail := r.failReads
	r.mu.Unlock()
	if fail {
		return fmt.Errorf("flaky remote read %d: %w", vi, ErrTransientIO)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.data[vi]; ok {
		copy(dst, v)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return nil
}

func (r *flakyRemote) WriteVector(vi int, src []float64) error {
	r.writes.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failWrites {
		return fmt.Errorf("flaky remote write %d: %w", vi, ErrTransientIO)
	}
	v := make([]float64, len(src))
	copy(v, src)
	r.data[vi] = v
	return nil
}

// TestTieredStoreJournalAbsorbsDirtyEvictions is the ISSUE's
// permanent-PUT-failure case: every dirty eviction during the outage
// must land in the spill journal (not error, not lose data), reads of
// journaled vectors must serve the newest bytes, and a healed remote +
// Sync must drain the journal to depth 0 with the remote holding the
// newest copy of everything.
func TestTieredStoreJournalAbsorbsDirtyEvictions(t *testing.T) {
	const vecLen, nVec = 4, 8
	rem := newFlakyRemote(vecLen)
	rem.setFailWrites(true)
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: vecLen,
		CacheDir: t.TempDir(), CacheVectors: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < nVec; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatalf("write %d during outage: %v", vi, err)
		}
	}
	st := ts.Stats()
	if st.JournalAppends == 0 || st.JournalDepth == 0 {
		t.Fatalf("journal absorbed nothing: %+v", st)
	}
	if st.DirtyWritebacks == 0 {
		t.Fatal("no dirty evictions happened — the cache never filled")
	}
	// Journaled vectors read back their newest bytes (served locally,
	// not from the stale remote).
	dst := make([]float64, vecLen)
	if err := ts.ReadVector(0, dst); err != nil {
		t.Fatal(err)
	}
	want := tierVec(vecLen, 0)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("journaled read pos %d: %v != %v", i, dst[i], want[i])
		}
	}
	if ts.Stats().JournalHits == 0 {
		t.Error("read of an evicted vector did not hit the journal")
	}
	// Journaled vectors count as local for the degraded-mode planner.
	if _, remote := ts.FetchCost(0); remote {
		t.Error("journaled vector priced as remote")
	}

	// Heal the network: Sync must replay the journal to empty.
	rem.setFailWrites(false)
	if err := ts.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	st = ts.Stats()
	if st.JournalDepth != 0 {
		t.Fatalf("journal depth %d after recovery sync, want 0", st.JournalDepth)
	}
	if st.JournalReplayed == 0 {
		t.Error("nothing replayed despite absorbed evictions")
	}
	for vi := 0; vi < nVec; vi++ {
		got, want := rem.get(vi), tierVec(vecLen, vi)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("remote vector %d pos %d: %v != %v after drain", vi, i, got[i], want[i])
			}
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredStoreBreakerDegradesAndRecovers drives the breaker through
// its full arc against a failing backend: trip, short-circuit fast,
// report Degraded, then — once the backend heals and the cooldown
// elapses — a probe recloses it.
func TestTieredStoreBreakerDegradesAndRecovers(t *testing.T) {
	const vecLen, nVec = 4, 8
	rem := newFlakyRemote(vecLen)
	for vi := 0; vi < nVec; vi++ {
		rem.WriteVector(vi, tierVec(vecLen, vi))
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: vecLen,
		CacheDir: t.TempDir(), CacheVectors: 2,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second, Now: clk.now},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Degraded() {
		t.Fatal("fresh tier already degraded")
	}

	rem.setFailReads(true)
	dst := make([]float64, vecLen)
	for vi := 0; vi < 2; vi++ {
		if err := ts.ReadVector(vi, dst); err == nil {
			t.Fatalf("read %d succeeded against a dead backend", vi)
		}
	}
	if !ts.Degraded() {
		t.Fatalf("breaker not open after threshold failures: %+v", ts.Stats())
	}
	// Short-circuit: the refusal is local and typed, not a timeout.
	err = ts.ReadVector(2, dst)
	if !IsCircuitOpen(err) {
		t.Fatalf("read while open = %v, want ErrCircuitOpen", err)
	}
	st := ts.Stats()
	if st.ShortCircuits == 0 || st.BreakerOpens == 0 || !st.Degraded {
		t.Errorf("stats while open: %+v", st)
	}
	if st.BreakerState != "open" {
		t.Errorf("BreakerState = %q, want open", st.BreakerState)
	}

	// Heal + cooldown: a guarded probe recloses the circuit.
	rem.setFailReads(false)
	clk.advance(2 * time.Second)
	if err := ts.ProbeRemote(context.Background()); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if ts.Degraded() {
		t.Fatal("still degraded after successful probe")
	}
	if err := ts.ReadVector(3, dst); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	want := tierVec(vecLen, 3)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("pos %d: %v != %v", i, dst[i], want[i])
		}
	}
	// ProbeRemote with a closed breaker is a no-op.
	reads := rem.reads.Load()
	if err := ts.ProbeRemote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rem.reads.Load() != reads {
		t.Error("ProbeRemote touched the backend while healthy")
	}
}

// TestRetryPolicyFullJitter pins the jitter contract (satellite 1):
// sleeps are drawn uniformly from (0, envelope] through the injectable
// Rand source, deterministic for a seeded source, never zero, and the
// envelope still doubles per retry up to Cap.
func TestRetryPolicyFullJitter(t *testing.T) {
	rp := RetryPolicy{Base: 8 * time.Millisecond, Rand: func() float64 { return 0.5 }}
	if got := rp.jittered(8 * time.Millisecond); got != 4*time.Millisecond {
		t.Errorf("jittered(8ms) with r=0.5 = %v, want 4ms", got)
	}
	// A zero draw must not yield a zero (spin) sleep.
	rp.Rand = func() float64 { return 0 }
	if got := rp.jittered(8 * time.Millisecond); got <= 0 {
		t.Errorf("jittered floor violated: %v", got)
	}
	// Determinism: two policies sharing a seed draw identical sleeps.
	mk := func() func() float64 { r := rand.New(rand.NewSource(7)); return r.Float64 }
	a, b := RetryPolicy{Rand: mk()}, RetryPolicy{Rand: mk()}
	for i := 0; i < 32; i++ {
		d := time.Duration(i+1) * time.Millisecond
		if x, y := a.jittered(d), b.jittered(d); x != y {
			t.Fatalf("draw %d diverged: %v != %v", i, x, y)
		}
	}
}

func TestRetryPolicyRetriesTransient(t *testing.T) {
	rp := RetryPolicy{Max: 3, Base: time.Microsecond, Rand: func() float64 { return 0.5 }}
	var counter atomic.Int64
	calls := 0
	err := rp.run(&counter, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flap: %w", ErrTransientIO)
		}
		return nil
	})
	if err != nil || calls != 3 || counter.Load() != 2 {
		t.Errorf("err=%v calls=%d retries=%d, want success on 3rd call with 2 retries", err, calls, counter.Load())
	}
	// Non-transient errors are not retried.
	calls = 0
	err = rp.run(&counter, func() error {
		calls++
		return fmt.Errorf("fatal: %w", ErrCircuitOpen)
	})
	if err == nil || calls != 1 {
		t.Errorf("circuit-open error retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryPolicyCtxCancelAbandonsBackoff(t *testing.T) {
	rp := RetryPolicy{Max: 5, Base: time.Hour} // backoff would block forever
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rp.runCtx(ctx, nil, func() error {
			return fmt.Errorf("down: %w", ErrTransientIO)
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("unexpected result: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored context cancellation")
	}
}
