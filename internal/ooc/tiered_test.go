package ooc

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc/remote"
)

// newTierFixture builds a TieredStore over a loopback remote server.
func newTierFixture(t *testing.T, n, vecLen, cacheVecs int, dev iosim.Device) (*TieredStore, *remote.Server, string) {
	t.Helper()
	srv, err := remote.NewServer(remote.ServerConfig{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	obj, err := NewObjectStore(context.Background(), srv.ObjectURL("vec"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ts, err := NewTieredStore(obj, TieredConfig{
		NumVectors: n, VectorLen: vecLen,
		CacheDir: dir, CacheVectors: cacheVecs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts, srv, dir
}

func tierVec(vecLen int, vi int) []float64 {
	v := make([]float64, vecLen)
	for i := range v {
		v[i] = float64(vi*1000 + i)
	}
	return v
}

func TestTieredStoreRemoteRoundTrip(t *testing.T) {
	const n, vecLen = 20, 8
	ts, _, _ := newTierFixture(t, n, vecLen, 4, iosim.Device{})
	for vi := 0; vi < n; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]float64, vecLen)
	for vi := 0; vi < n; vi++ {
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		want := tierVec(vecLen, vi)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("vector %d pos %d: %v != %v", vi, i, buf[i], want[i])
			}
		}
	}
	st := ts.Stats()
	if st.Evictions == 0 || st.DirtyWritebacks == 0 {
		t.Errorf("a 4-slot cache over 20 vectors must evict: %+v", st)
	}
	if st.RemoteReads == 0 {
		t.Errorf("evicted vectors must come back from the remote tier: %+v", st)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTieredStoreFetchCost(t *testing.T) {
	// The tier keeps where a vector lives to itself: no layer of the
	// chain prices a fetch, so a cached and an uncached vector both
	// report local, and both read back through the wrapper.
	const n, vecLen = 10, 4
	ts, _, _ := newTierFixture(t, n, vecLen, 2, iosim.Device{})
	defer ts.Close()
	for _, vi := range []int{1, 7} {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	for vi := 2; vi < 5; vi++ { // push 7 out of the 2-slot cache
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]float64, vecLen)
	for _, vi := range []int{4, 7} {
		if d, rem := StoreFetchCost(ts, vi); rem || d != 0 {
			t.Errorf("vector %d: StoreFetchCost = (%v, %v), want (0, local)", vi, d, rem)
		}
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		if want := tierVec(vecLen, vi); buf[0] != want[0] || buf[vecLen-1] != want[vecLen-1] {
			t.Errorf("vector %d read back %v, want %v", vi, buf, want)
		}
	}
	m, err := NewManager(Config{NumVectors: n, VectorLen: vecLen, Slots: MinSlots, Strategy: NewLRU(n), Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, want := m.MemOverheadBytes(), ts.MemOverheadBytes()+PipelineBytes(vecLen); got != want {
		t.Errorf("manager reports %d B overhead, want the tier's %d B and the writer's: its checksum table is not charged to -L", got, want)
	}
}

func TestTieredStoreMemOverhead(t *testing.T) {
	const n = 64
	// An idle tier owns no vector-sized buffer (a miss lands in the
	// caller's slot), so its charge against -L is metadata only: the
	// same for 32-float vectors as for 4096-float ones.
	var idle [2]int64
	for i, vecLen := range []int{32, 4096} {
		ts, _, _ := newTierFixture(t, n, vecLen, 16, iosim.Device{})
		defer ts.Close()
		idle[i] = ts.MemOverheadBytes()
	}
	if idle[0] <= 0 || idle[0] != idle[1] {
		t.Fatalf("idle overhead %d B at vecLen 32, %d B at 4096: want equal and positive", idle[0], idle[1])
	}
	if limit := int64(64 * (n + 16)); idle[0] > limit {
		t.Errorf("idle overhead %d B for %d vectors and 16 cache slots, want O(n+c) <= %d", idle[0], n, limit)
	}
	const vecLen = 32
	ts, _, _ := newTierFixture(t, n, vecLen, 16, iosim.Device{})
	defer ts.Close()
	for vi := 0; vi < 16; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	if grown := ts.MemOverheadBytes(); grown <= idle[0] {
		t.Errorf("populating the index should grow overhead: %d -> %d", idle[0], grown)
	}
}

func TestTieredStoreDirtyEvictionSurvivesCacheLoss(t *testing.T) {
	// The crash-safety claim: by the time a dirty victim's slot is
	// reused, the victim is durable on the remote tier — so destroying
	// the whole cache loses nothing that was evicted.
	const n, vecLen = 10, 4
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obj, err := NewObjectStore(context.Background(), srv.ObjectURL("cl"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ts, err := NewTieredStore(obj, TieredConfig{
		NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < 6; vi++ { // 2-slot cache: vectors 0..3 evicted dirty
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: no Close, cache dir destroyed.
	os.RemoveAll(dir)
	buf := make([]float64, vecLen)
	for vi := 0; vi < 4; vi++ {
		if err := obj.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float64(vi*1000) {
			t.Errorf("evicted vector %d not durable remote: %v", vi, buf[0])
		}
	}
}

// putOutage is a remote whose PUTs fail while down is set.
type putOutage struct {
	Store
	down atomic.Bool
}

func (p *putOutage) WriteVector(vi int, src []float64) error {
	if p.down.Load() {
		return fmt.Errorf("put outage, vector %d: %w", vi, ErrTransientIO)
	}
	return p.Store.WriteVector(vi, src)
}

// deadlineProbe is a remote that records whether each ranged request's
// context carried a deadline, and how far off it was.
type deadlineProbe struct {
	*MemStore
	mu   sync.Mutex
	left []time.Duration // < 0 for a request with no deadline
}

func (p *deadlineProbe) note(ctx context.Context) {
	left := time.Duration(-1)
	if d, ok := ctx.Deadline(); ok {
		left = time.Until(d)
	}
	p.mu.Lock()
	p.left = append(p.left, left)
	p.mu.Unlock()
}

func (p *deadlineProbe) ReadRange(ctx context.Context, vi, count int, dst []float64) error {
	p.note(ctx)
	return p.MemStore.ReadVector(vi, dst)
}

func (p *deadlineProbe) WriteRange(ctx context.Context, vi, count int, src []float64) error {
	p.note(ctx)
	return p.MemStore.WriteVector(vi, src)
}

// TestTieredRemoteDeadlineDefault: a tier configured with no deadline
// still bounds every remote attempt, so a backend that accepts a request
// and never answers costs a deadline, not a hung engine pass. A
// negative deadline is refused.
func TestTieredRemoteDeadlineDefault(t *testing.T) {
	const n, vecLen = 4, 3
	probe := &deadlineProbe{MemStore: NewMemStore(n, vecLen)}
	ts, err := NewTieredStore(probe, TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	// Vector 1 evicts dirty vector 0 (a PUT); reading 0 back evicts
	// dirty vector 1 (a PUT) and GETs 0.
	for _, vi := range []int{0, 1} {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.ReadVector(0, make([]float64, vecLen)); err != nil {
		t.Fatal(err)
	}
	if len(probe.left) != 3 {
		t.Fatalf("%d remote requests, want two PUTs and a GET", len(probe.left))
	}
	for i, left := range probe.left {
		switch {
		case left < 0:
			t.Errorf("remote request %d has no deadline", i)
		case left == 0 || left > defaultRemoteDeadline:
			t.Errorf("remote request %d: deadline %v away, want within (0, %v]", i, left, defaultRemoteDeadline)
		}
	}
	cfg := TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: 1, RemoteDeadline: -time.Second}
	if _, err := NewTieredStore(probe, cfg); err == nil {
		t.Error("a negative deadline must fail, not expire every attempt")
	}
}

// stallStore is a remote that never answers: each request ends only
// with its context, reported the way ObjectStore reports a transport
// error, as transient.
type stallStore struct{ *MemStore }

func (stallStore) ReadRange(ctx context.Context, vi, count int, dst []float64) error {
	<-ctx.Done()
	return fmt.Errorf("stalled read: %w (%v)", ErrTransientIO, ctx.Err())
}

func (stallStore) WriteRange(ctx context.Context, vi, count int, src []float64) error {
	<-ctx.Done()
	return fmt.Errorf("stalled write: %w (%v)", ErrTransientIO, ctx.Err())
}

// TestTieredContextEndsAttempts: the context SetContext attaches ends a
// remote attempt in flight, well inside the remote deadline, and the
// attempt counts as refused: the evicted dirty victim stays in the
// cache file and its write returns nil; a read fails as unreadable
// (transient), for the engine to recompute. The breaker does not judge
// the backend by a caller's cancellation.
func TestTieredContextEndsAttempts(t *testing.T) {
	const n, vecLen = 4, 3
	ts, err := NewTieredStore(stallStore{NewMemStore(n, vecLen)},
		TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ts.SetContext(ctx)
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	for _, vi := range []int{0, 1} { // vector 1 evicts dirty vector 0: a PUT
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatalf("write %d: %v", vi, err)
		}
	}
	if took := time.Since(start); took > defaultRemoteDeadline/2 {
		t.Fatalf("the stalled PUT took %v: the context did not end it", took)
	}
	got := make([]float64, vecLen)
	if err := ts.ReadVector(0, got); err != nil || got[0] != tierVec(vecLen, 0)[0] {
		t.Errorf("refused victim 0 read back %v, %v; want it from the cache file", got, err)
	}
	if err := ts.ReadVector(2, got); !IsTransient(err) {
		t.Errorf("read under an ended context: %v, want a transient error", err)
	}
	if st := ts.Stats(); st.RemoteWrites != 0 || st.Degraded {
		t.Errorf("stats %+v: want no remote write landed and the breaker closed", st)
	}
}

// TestTieredStoreModel searches instead of scripting: three goroutines
// run seeded random write / read / re-read sequences on disjoint
// vectors over a cache far smaller than the working set and a
// latency-injected loopback remote, interleaved (while quiesced) with
// Close and (cold) reopen over the same remote object and with remote
// PUT outages, and every read is checked against a plain map. A
// reopened tier is a new incarnation that reads only what it wrote, so
// the model resets with it. Properties: read-your-writes through
// eviction, write-back and overflow; a miss is exactly one remote
// request; a quiesced tier holds no record in RAM; and Close issues no
// remote request.
func TestTieredStoreModel(t *testing.T) {
	const n, vecLen, cacheVecs, workers, rounds, steps = 24, 8, 5, 3, 12, 40
	srv, err := remote.NewServer(remote.ServerConfig{
		Device: iosim.Device{Latency: 100 * time.Microsecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obj, err := NewObjectStore(context.Background(), srv.ObjectURL("model"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	rem := &putOutage{Store: obj}
	cfg := TieredConfig{
		NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: cacheVecs,
		Breaker: neverTrips, // reads stay served through a PUT outage
	}
	open := func() *TieredStore {
		ts, err := NewTieredStore(rem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	var mu sync.Mutex // the model is shared; the vectors are not
	var model map[int][]float64
	check := func(what string, vi int, got []float64) {
		mu.Lock()
		want := model[vi]
		mu.Unlock()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: vector %d pos %d = %v, model says %v", what, vi, i, got[i], want[i])
				return
			}
		}
	}
	missesAreGets := func(ts *TieredStore) {
		if st := ts.Stats(); st.RemoteReads != st.CacheMisses || st.RemoteVectorsRead != st.CacheMisses {
			t.Errorf("a miss must be exactly one GET of one vector: %+v", st)
		}
	}

	closeSilently := func(ts *TieredStore) {
		missesAreGets(ts)
		ops := srv.Clock().Ops()
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Clock().Ops() - ops; got != 0 {
			t.Errorf("Close issued %d remote requests, want 0", got)
		}
	}

	rng := rand.New(rand.NewSource(22))
	ts, model := open(), make(map[int][]float64)
	overflowed := false
	for round := 0; round < rounds; round++ {
		rem.down.Store(rng.Intn(2) == 0)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int, r *rand.Rand) {
				defer wg.Done()
				buf := make([]float64, vecLen)
				for step := 0; step < steps; step++ {
					vi := g + workers*r.Intn(n/workers) // worker g owns vi ≡ g (mod workers)
					mu.Lock()
					_, written := model[vi]
					mu.Unlock()
					if !written || r.Intn(3) == 0 {
						// A record of any length from one float to the whole
						// vector, as the manager writes prefixes.
						v := tierVec(vecLen, r.Intn(1<<20))[:1+r.Intn(vecLen)]
						if err := ts.WriteVector(vi, v); err != nil {
							t.Errorf("write %d: %v", vi, err)
							return
						}
						mu.Lock()
						model[vi] = v
						mu.Unlock()
						continue
					}
					mu.Lock()
					rec := buf[:len(model[vi])]
					mu.Unlock()
					for reread := 0; reread < 1+r.Intn(2); reread++ {
						if err := ts.ReadVector(vi, rec); err != nil {
							t.Errorf("read %d: %v", vi, err)
							return
						}
						check(fmt.Sprintf("round %d worker %d", round, g), vi, rec)
					}
				}
			}(g, rand.New(rand.NewSource(rng.Int63())))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		ts.mu.Lock()
		held := len(ts.pend)
		ts.mu.Unlock()
		if held != 0 {
			t.Fatalf("round %d: a quiesced tier holds %d records in RAM", round, held)
		}
		overflowed = overflowed || ts.Stats().Overflow > 0
		if rng.Intn(3) == 0 {
			closeSilently(ts)
			ts, model = open(), make(map[int][]float64)
		}
	}
	closeSilently(ts)
	if !overflowed {
		t.Error("no PUT outage overflowed the cache")
	}
}
