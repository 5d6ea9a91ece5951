package ooc

// Fault-path tests for the tiered store: dirty evictions surviving a
// permanent remote PUT outage in the in-memory spill set, the drain's
// ordering against newer pushes, breaker trips and recovery, and the
// full-jitter retry policy.

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

// waitSpillDrained polls until the background drain has emptied the
// spill set.
func waitSpillDrained(t *testing.T, ts *TieredStore) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ts.Stats().SpillDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("spill never drained: %+v", ts.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// neverTrips is a breaker threshold no test reaches, for tests whose
// subject is an outage met request by request.
var neverTrips = BreakerConfig{Threshold: 1 << 30}

// TestTieredStoreSpillServesReadsDuringOutage: during a permanent PUT
// outage every dirty eviction lands in the in-memory spill set (no
// error, no lost bytes), reads of spilled vectors return the newest
// bytes without a remote GET, and MemOverheadBytes charges for them.
// Once the remote heals, the first successful request starts a drain
// that empties the set, and a later miss GETs the newest bytes.
func TestTieredStoreSpillServesReadsDuringOutage(t *testing.T) {
	const vecLen, nVec, written = 4, 10, 8
	rem := newFlakyRemote(vecLen)
	rem.setFailWrites(true)
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: vecLen,
		CacheDir: t.TempDir(), CacheVectors: 2,
		Breaker: neverTrips,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	idle := ts.MemOverheadBytes()
	for vi := 0; vi < written; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatalf("write %d during outage: %v", vi, err)
		}
	}
	st := ts.Stats()
	if st.SpillAppends != written-2 || st.SpillDepth != written-2 {
		t.Fatalf("want the %d dirty victims spilled: %+v", written-2, st)
	}
	if grown, want := ts.MemOverheadBytes()-idle, st.SpillDepth*vecLen*8; grown < want {
		t.Errorf("overhead grew by %d B, want at least the %d B spilled", grown, want)
	}

	reads := rem.reads.Load()
	dst := make([]float64, vecLen)
	for vi := 0; vi < written-2; vi++ {
		if err := ts.ReadVector(vi, dst); err != nil {
			t.Fatal(err)
		}
		if want := tierVec(vecLen, vi); dst[0] != want[0] || dst[vecLen-1] != want[vecLen-1] {
			t.Fatalf("spilled vector %d read %v, want %v", vi, dst, want)
		}
	}
	if got := rem.reads.Load() - reads; got != 0 {
		t.Errorf("reads of spilled vectors issued %d remote GETs, want 0", got)
	}
	if got := ts.Stats().SpillHits; got != written-2 {
		t.Errorf("SpillHits = %d, want %d", got, written-2)
	}

	// Heal: the next successful remote request (a miss) starts a drain.
	rem.setFailWrites(false)
	if err := ts.ReadVector(nVec-1, dst); err != nil {
		t.Fatal(err)
	}
	waitSpillDrained(t, ts)
	if st := ts.Stats(); st.SpillReplayed != written-2 {
		t.Errorf("SpillReplayed = %d, want %d", st.SpillReplayed, written-2)
	}
	reads = rem.reads.Load()
	if err := ts.ReadVector(0, dst); err != nil {
		t.Fatal(err)
	}
	if rem.reads.Load() != reads+1 {
		t.Error("a drained vector must be a remote miss")
	}
	if want := tierVec(vecLen, 0); dst[0] != want[0] || dst[vecLen-1] != want[vecLen-1] {
		t.Errorf("drained vector 0 read %v from the remote, want %v", dst, want)
	}
}

// TestTieredPrefixRecords: a record shorter than the vector stays that
// short through the tier. A spilled dirty victim is held, and charged,
// at its own length, the drain's PUT and a later remote GET move only
// its bytes, and it reads back exact.
func TestTieredPrefixRecords(t *testing.T) {
	const vecLen, nVec, written, short = 16, 10, 8, 3
	rem := newFlakyRemote(vecLen)
	rem.setFailWrites(true)
	ts, err := NewTieredStore(rem, TieredConfig{
		NumVectors: nVec, VectorLen: vecLen,
		CacheDir: t.TempDir(), CacheVectors: 2,
		Breaker: neverTrips,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	idle := ts.MemOverheadBytes()
	for vi := 0; vi < written; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)[:short]); err != nil {
			t.Fatalf("write %d during outage: %v", vi, err)
		}
	}
	spilled := int64(written - 2)
	if grown := ts.MemOverheadBytes() - idle; grown < spilled*short*8 || grown >= spilled*vecLen*8 {
		t.Errorf("%d spilled %d-float records grew the overhead by %d B; want their bytes, not full vectors",
			spilled, short, grown)
	}
	rem.setFailWrites(false)
	if err := ts.ReadVector(nVec-1, make([]float64, vecLen)); err != nil {
		t.Fatal(err)
	}
	waitSpillDrained(t, ts)
	st := ts.Stats()
	if st.RemoteVectorsWritten < spilled || st.BytesPushed != st.RemoteVectorsWritten*short*8 {
		t.Errorf("BytesPushed = %d for %d records of %d floats", st.BytesPushed, st.RemoteVectorsWritten, short)
	}
	for vi := 0; vi < int(spilled); vi++ {
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

// TestTieredDrainDoesNotOverwriteNewerPush: a drain PUTting a spilled
// vector's old bytes must not land after an eviction PUT of newer
// bytes of the same vector. The remote holds the drain's PUT until the
// eviction's has landed; the tier must not let the eviction's start
// before the drain's is done.
func TestTieredDrainDoesNotOverwriteNewerPush(t *testing.T) {
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

	// Spill v's old bytes: its eviction PUT is refused.
	rem.setFailWrites(true)
	for _, w := range []struct {
		vi  int
		buf []float64
	}{{v, old}, {1, tierVec(vecLen, 1)}} {
		if err := ts.WriteVector(w.vi, w.buf); err != nil {
			t.Fatal(err)
		}
	}
	if d := ts.Stats().SpillDepth; d != 1 {
		t.Fatalf("spill depth %d, want 1", d)
	}

	// Heal; a miss starts the drain, whose PUT of v is held.
	rem.setFailWrites(false)
	rem.armed.Store(true)
	dst := make([]float64, vecLen)
	if err := ts.ReadVector(2, dst); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rem.started:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain never PUT the spilled vector")
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
	waitSpillDrained(t, ts)

	if got := rem.get(v); got[0] != newest[0] {
		t.Errorf("remote holds %v for vector %d, want the newest bytes %v", got, v, newest)
	}
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
	err := rp.runCtx(nil, &counter, func() error {
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
