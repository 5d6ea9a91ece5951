package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
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
	obj, err := NewObjectStore(srv.ObjectURL("vec"), n, vecLen)
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
	dir := t.TempDir()
	cs, err := NewChecksumStore(ts, filepath.Join(dir, "x.sum"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, vecLen)
	for _, vi := range []int{4, 7} {
		if d, rem := StoreFetchCost(cs, vi); rem || d != 0 {
			t.Errorf("vector %d: StoreFetchCost = (%v, %v), want (0, local)", vi, d, rem)
		}
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		if want := tierVec(vecLen, vi); buf[0] != want[0] || buf[vecLen-1] != want[vecLen-1] {
			t.Errorf("vector %d read back %v, want %v", vi, buf, want)
		}
	}
	if cs.MemOverheadBytes() <= ts.MemOverheadBytes() {
		t.Error("checksum wrapper must add its table overhead to the inner store's")
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
	obj, err := NewObjectStore(srv.ObjectURL("cl"), n, vecLen)
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

// flipCacheBit rots the cached copy of vector vi on disk, below the
// cache tier's checksum layer.
func flipCacheBit(t *testing.T, ts *TieredStore, dir string, vi, vecLen int) {
	t.Helper()
	ts.mu.Lock()
	slot, ok := ts.slotOf[vi]
	ts.mu.Unlock()
	if !ok {
		t.Fatalf("vector %d is not cached", vi)
	}
	f, err := os.OpenFile(filepath.Join(dir, "cache.vec"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	off := int64(slot)*int64(vecLen)*8 + 3
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestTieredSyncDoesNotPushCorruptDirty: a dirty cached vector that
// fails verification must never become the authoritative remote copy.
// Eviction is the tier's only push: the rotted victim is not PUT, the
// admission that needed its slot returns the corruption, the victim
// stays dirty, and the remote object keeps its previous bytes.
func TestTieredSyncDoesNotPushCorruptDirty(t *testing.T) {
	const n, vecLen = 6, 4
	rem := NewMemStore(n, vecLen)
	dir := t.TempDir()
	ts, err := NewTieredStore(rem, TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	// Generation 0 of vector 0 reaches the remote by eviction.
	for _, vi := range []int{0, 1, 2} {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 100 of vector 0 is cached dirty, becomes the LRU
	// victim, and rots.
	if err := ts.WriteVector(0, tierVec(vecLen, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteVector(3, tierVec(vecLen, 3)); err != nil {
		t.Fatal(err)
	}
	flipCacheBit(t, ts, dir, 0, vecLen)
	pushed := ts.Stats().RemoteWrites
	for try := 0; try < 2; try++ {
		if err := ts.WriteVector(4, tierVec(vecLen, 4)); !IsCorruption(err) {
			t.Fatalf("try %d: evicting a rotted dirty vector returned %v, want a corruption error", try, err)
		}
	}
	if got := ts.Stats().RemoteWrites; got != pushed {
		t.Errorf("%d remote writes after the rot, want none", got-pushed)
	}
	buf := make([]float64, vecLen)
	if err := rem.ReadVector(0, buf); err != nil {
		t.Fatal(err)
	}
	if want := tierVec(vecLen, 0); buf[0] != want[0] || buf[vecLen-1] != want[vecLen-1] {
		t.Errorf("remote vector 0 = %v, want generation 0 (%v)", buf, want)
	}
}

// TestTieredCorruptCacheSlotNamesVector: the cache tier's checksum
// table is indexed by cache slot, but the engine recomputes by vector.
// A rotted dirty record must be reported as the vector the slot holds
// — on a read of it, and on the admission that tries to evict it —
// or the engine would invalidate the wrong vector.
func TestTieredCorruptCacheSlotNamesVector(t *testing.T) {
	const n, vecLen = 10, 4
	dir := t.TempDir()
	ts, err := NewTieredStore(NewMemStore(n, vecLen), TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.WriteVector(7, tierVec(vecLen, 7)); err != nil {
		t.Fatal(err)
	}
	flipCacheBit(t, ts, dir, 7, vecLen)
	corrupt := func(err error) int {
		var ce interface{ CorruptVector() int }
		if !errors.As(err, &ce) {
			t.Fatalf("got %v, want a corruption error", err)
		}
		return ce.CorruptVector()
	}
	buf := make([]float64, vecLen)
	if vi := corrupt(ts.ReadVector(7, buf)); vi != 7 {
		t.Errorf("reading rotted vector 7 reported vector %d corrupt", vi)
	}
	if vi := corrupt(ts.WriteVector(3, tierVec(vecLen, 3))); vi != 7 {
		t.Errorf("evicting rotted vector 7 reported vector %d corrupt", vi)
	}
}

// TestTieredStoreRefetchesCorruptCleanCopy: a CLEAN cached copy that
// rots is dropped and re-read from the authoritative remote copy
// instead of failing the read.
func TestTieredStoreRefetchesCorruptCleanCopy(t *testing.T) {
	const n, vecLen = 4, 4
	rem := NewMemStore(n, vecLen)
	dir := t.TempDir()
	ts, err := NewTieredStore(rem, TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	// Evict vector 2 dirty, then re-fetch it: the cached copy is clean.
	want := tierVec(vecLen, 2)
	buf := make([]float64, vecLen)
	if err := ts.WriteVector(2, want); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteVector(3, tierVec(vecLen, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ts.ReadVector(2, buf); err != nil {
		t.Fatal(err)
	}
	before := ts.Stats()
	flipCacheBit(t, ts, dir, 2, vecLen)
	if err := ts.ReadVector(2, buf); err != nil {
		t.Fatalf("read of a rotted clean copy: %v", err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("pos %d: %v != %v", i, buf[i], want[i])
		}
	}
	if st := ts.Stats(); st.RemoteReads-before.RemoteReads != 1 || st.CacheMisses-before.CacheMisses != 1 {
		t.Errorf("want exactly one refetch: %+v -> %+v", before, st)
	}
}

// TestTieredStoreModel searches instead of scripting: three goroutines
// run seeded random write / read / re-read sequences on disjoint
// vectors over a cache far smaller than the working set and a
// latency-injected loopback remote, interleaved (while quiesced) with
// Close and (cold) reopen over the same remote object, and every read
// is checked against a plain map. A reopened tier is a new incarnation
// that reads only what it wrote, so the model resets with it.
// Properties: read-your-writes through eviction and write-back; a miss
// is exactly one remote request; and Close issues no remote request.
func TestTieredStoreModel(t *testing.T) {
	const n, vecLen, cacheVecs, workers, rounds, steps = 24, 8, 5, 3, 12, 40
	srv, err := remote.NewServer(remote.ServerConfig{
		Device: iosim.Device{Latency: 100 * time.Microsecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obj, err := NewObjectStore(srv.ObjectURL("model"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: cacheVecs}
	open := func() *TieredStore {
		ts, err := NewTieredStore(obj, cfg)
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
	for round := 0; round < rounds; round++ {
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
		if rng.Intn(3) == 0 {
			closeSilently(ts)
			ts, model = open(), make(map[int][]float64)
		}
	}
	closeSilently(ts)
}
