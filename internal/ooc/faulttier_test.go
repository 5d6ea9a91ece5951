package ooc

// Fault-path tests for the tiered store: dirty evictions surviving a
// permanent remote PUT outage in the cache file past its bound, their
// push once the remote heals, the ordering of a write against an
// in-flight PUT, breaker trips and recovery, and the full-jitter retry
// policy.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oocphylo/internal/obs"
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

// neverTrips is a breaker threshold no test reaches, for tests whose
// subject is an outage met request by request.
var neverTrips = BreakerConfig{Threshold: 1 << 30}

// refuseWrites opens a tier over rem with every PUT refused and writes
// vectors 0..written-1 (recLen floats each) through it.
func refuseWrites(t *testing.T, rem *flakyRemote, nVec, cached, written, recLen int) *TieredStore {
	t.Helper()
	rem.setFailWrites(true)
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: rem.vecLen,
		CacheDir: t.TempDir(), CacheVectors: cached,
		Breaker: neverTrips,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	for vi := 0; vi < written; vi++ {
		if err := ts.WriteVector(vi, tierVec(rem.vecLen, vi)[:recLen]); err != nil {
			t.Fatalf("write %d during outage: %v", vi, err)
		}
	}
	return ts
}

// residents counts the vectors the tier's cache holds.
func residents(ts *TieredStore) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.slotOf)
}

// TestTieredOverflowServesReadsDuringOutage: during a permanent PUT
// outage every dirty victim goes back into the cache file past the
// bound (no error, no lost bytes), and reads return the newest bytes
// without a remote GET. RAM holds none of them: the overhead grows by
// placement and slot metadata only, never by a record, and the tier
// starts no goroutine.
func TestTieredOverflowServesReadsDuringOutage(t *testing.T) {
	const vecLen, nVec, written, cached = 512, 10, 8, 2
	rem := newFlakyRemote(vecLen)
	base := settledGoroutines()
	ts := refuseWrites(t, rem, nVec, cached, 0, vecLen)
	idle := ts.MemOverheadBytes()
	for vi := 0; vi < written; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatalf("write %d during outage: %v", vi, err)
		}
	}
	st := ts.Stats()
	if st.Overflow != written-cached || st.RemoteVectorsWritten != 0 {
		t.Fatalf("want the %d refused victims overflowed: %+v", written-cached, st)
	}
	// Per cached vector, at most a placement-map entry and one slot's
	// metadata; one record is 4 KiB.
	if grown, meta := ts.MemOverheadBytes()-idle, int64(written*80); grown > meta {
		t.Errorf("overhead grew by %d B for %d cached vectors, want metadata only (<= %d B)", grown, written, meta)
	}

	reads := rem.reads.Load()
	dst := make([]float64, vecLen)
	for vi := 0; vi < written; vi++ {
		if err := ts.ReadVector(vi, dst); err != nil {
			t.Fatal(err)
		}
		if want := tierVec(vecLen, vi); dst[0] != want[0] || dst[vecLen-1] != want[vecLen-1] {
			t.Fatalf("vector %d read %v, want %v", vi, dst[:2], want[:2])
		}
	}
	if got := rem.reads.Load() - reads; got != 0 {
		t.Errorf("reads of refused vectors issued %d remote GETs, want 0", got)
	}
	if got := settledGoroutines(); got > base {
		t.Errorf("%d goroutines after the outage, %d before the tier opened", got, base)
	}
}

// TestTieredOverflowPushedAfterHeal: once the remote takes PUTs again,
// an overflowed vector rewritten and then evicted PUTs its newest bytes,
// every other refused vector reaches the remote too, and admissions
// bring the cache back to its bound.
func TestTieredOverflowPushedAfterHeal(t *testing.T) {
	const vecLen, nVec, written, cached = 4, 16, 8, 2
	rem := newFlakyRemote(vecLen)
	ts := refuseWrites(t, rem, nVec, cached, written, vecLen)
	if got := residents(ts); got != written {
		t.Fatalf("%d vectors cached after the outage, want all %d written", got, written)
	}

	rem.setFailWrites(false)
	newest := tierVec(vecLen, 100)
	if err := ts.WriteVector(0, newest); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, vecLen)
	for vi := written; vi < nVec; vi++ { // misses: each admission evicts
		if err := ts.ReadVector(vi, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got := residents(ts); got > cached {
		t.Errorf("%d vectors cached after %d admissions, want <= %d", got, nVec-written, cached)
	}
	if st := ts.Stats(); st.Overflow != 0 {
		t.Errorf("Overflow = %d after the heal, want 0", st.Overflow)
	}
	if got := rem.get(0); got[0] != newest[0] || got[vecLen-1] != newest[vecLen-1] {
		t.Errorf("remote holds %v for vector 0, want the newest bytes %v", got, newest)
	}
	for vi := 1; vi < written; vi++ {
		if got, want := rem.get(vi), tierVec(vecLen, vi); got[0] != want[0] {
			t.Errorf("remote holds %v for vector %d, want %v", got, vi, want)
		}
	}
	if err := ts.ReadVector(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != newest[0] {
		t.Errorf("vector 0 read back %v from the remote, want %v", dst, newest)
	}
}

// TestTieredPrefixRecords: a record shorter than the vector stays that
// short through the tier. A refused victim overflows into the cache at
// its own length, the PUT that later pushes it and a remote GET move
// only its bytes, and it reads back exact.
func TestTieredPrefixRecords(t *testing.T) {
	const vecLen, nVec, written, cached, short = 16, 16, 8, 2, 3
	rem := newFlakyRemote(vecLen)
	ts := refuseWrites(t, rem, nVec, cached, written, short)
	rem.setFailWrites(false)
	for vi := written; vi < nVec; vi++ {
		if err := ts.ReadVector(vi, make([]float64, vecLen)); err != nil {
			t.Fatal(err)
		}
	}
	st := ts.Stats()
	if st.RemoteVectorsWritten < written || st.BytesPushed != st.RemoteVectorsWritten*short*8 {
		t.Errorf("BytesPushed = %d for %d records of %d floats", st.BytesPushed, st.RemoteVectorsWritten, short)
	}
	for vi := 0; vi < written; vi++ {
		rem.mu.Lock()
		pushed := len(rem.data[vi])
		rem.mu.Unlock()
		if pushed != short {
			t.Errorf("vector %d: the PUT carried %d floats, want %d", vi, pushed, short)
		}
	}
	dst := make([]float64, short)
	if err := ts.ReadVector(0, dst); err != nil {
		t.Fatal(err)
	}
	if got := ts.Stats().BytesFetched - st.BytesFetched; got != short*8 {
		t.Errorf("the GET of a %d-float record fetched %d bytes", short, got)
	}
	for i, want := range tierVec(vecLen, 0)[:short] {
		if dst[i] != want {
			t.Fatalf("vector 0 [%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// gatedRemote holds the first armed PUT of one vector until a later
// PUT of it has landed (or a timeout passes, for a tier that orders
// the two itself).
type gatedRemote struct {
	*flakyRemote
	vi      int
	armed   atomic.Bool
	puts    atomic.Int32
	started chan struct{} // the held PUT arrived
	landed  chan struct{} // a later PUT of vi was stored
	held    chan struct{} // the held PUT was stored
}

func (g *gatedRemote) WriteVector(vi int, src []float64) error {
	if vi != g.vi || !g.armed.Load() {
		return g.flakyRemote.WriteVector(vi, src)
	}
	switch g.puts.Add(1) {
	case 1:
		close(g.started)
		select {
		case <-g.landed:
		case <-time.After(200 * time.Millisecond):
		}
		defer close(g.held)
	case 2:
		defer close(g.landed)
	}
	return g.flakyRemote.WriteVector(vi, src)
}

// TestTieredWriteWaitsOutInFlightPush: a write of a vector whose
// eviction PUT is in flight waits for that PUT, so the older bytes can
// never land after a later PUT of the newer ones. The remote holds the
// first PUT until a second PUT of the vector has landed (or a timeout
// passes); the tier must not let the second start before the first is
// done.
func TestTieredWriteWaitsOutInFlightPush(t *testing.T) {
	const vecLen, nVec, v = 4, 8, 0
	rem := &gatedRemote{
		flakyRemote: newFlakyRemote(vecLen), vi: v,
		started: make(chan struct{}), landed: make(chan struct{}), held: make(chan struct{}),
	}
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: vecLen,
		CacheDir: t.TempDir(), CacheVectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	old, newest := tierVec(vecLen, 100), tierVec(vecLen, 200)
	if err := ts.WriteVector(v, old); err != nil {
		t.Fatal(err)
	}

	// Evict v: its PUT of the old bytes is held.
	rem.armed.Store(true)
	evicting := make(chan error, 1)
	go func() { evicting <- ts.WriteVector(1, tierVec(vecLen, 1)) }()
	select {
	case <-rem.started:
	case <-time.After(5 * time.Second):
		t.Fatal("the eviction never PUT vector v")
	}

	// Rewrite v, then evict it dirty: the eviction PUT carries the
	// newest bytes.
	if err := ts.WriteVector(v, newest); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteVector(3, tierVec(vecLen, 3)); err != nil {
		t.Fatal(err)
	}
	<-rem.held
	if err := <-evicting; err != nil {
		t.Fatal(err)
	}

	if got := rem.get(v); got[0] != newest[0] {
		t.Errorf("remote holds %v for vector %d, want the newest bytes %v", got, v, newest)
	}
	dst := make([]float64, vecLen)
	if err := ts.ReadVector(v, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != newest[0] {
		t.Errorf("a fresh read of vector %d returned %v, want the newest bytes %v", v, dst, newest)
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
	if state := ts.Breaker().State(); state != BreakerOpen {
		t.Errorf("breaker state = %v, want open", state)
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
	var counter obs.Counter
	calls := 0
	err := rp.runCtx(nil, &counter, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flap: %w", ErrTransientIO)
		}
		return nil
	})
	if err != nil || calls != 3 || counter.Value() != 2 {
		t.Errorf("err=%v calls=%d retries=%d, want success on 3rd call with 2 retries", err, calls, counter.Value())
	}
	// Non-transient errors are not retried.
	calls = 0
	err = rp.runCtx(nil, &counter, func() error {
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
