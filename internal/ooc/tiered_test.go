package ooc

import (
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

func TestTieredStoreCoalescing(t *testing.T) {
	const n, vecLen = 32, 8
	ts, _, _ := newTierFixture(t, n, vecLen, 8,
		iosim.Device{Latency: 5 * time.Millisecond, Bandwidth: 1e9})
	defer ts.Close()
	for vi := 0; vi < n; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync coalesces adjacent dirty vectors into ranged writes: far
	// fewer remote requests than vectors.
	st := ts.Stats()
	if st.RemoteVectorsWritten < int64(n-8) {
		t.Fatalf("sync should have pushed the dirty vectors: %+v", st)
	}
	if st.RemoteWrites >= st.RemoteVectorsWritten {
		t.Errorf("adjacent dirty vectors should coalesce: %d requests for %d vectors",
			st.RemoteWrites, st.RemoteVectorsWritten)
	}
	if st.Coalesced == 0 {
		t.Errorf("coalesce counter not advanced: %+v", st)
	}
}

func TestTieredStoreFetchCost(t *testing.T) {
	const n, vecLen = 10, 4
	ts, _, _ := newTierFixture(t, n, vecLen, 2, iosim.Device{})
	defer ts.Close()
	if err := ts.WriteVector(1, tierVec(vecLen, 1)); err != nil {
		t.Fatal(err)
	}
	if d, rem := ts.FetchCost(1); rem || d != 0 {
		t.Errorf("cached vector FetchCost = (%v, %v), want (0, local)", d, rem)
	}
	if _, rem := ts.FetchCost(7); !rem {
		t.Error("uncached vector FetchCost reports local, want remote")
	}
	// The answer forwards through a ChecksumStore wrapper.
	dir := t.TempDir()
	fs, err := NewFileStore(filepath.Join(dir, "x.vec"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewChecksumStore(ts, filepath.Join(dir, "x.sum"), n, vecLen)
	_ = fs
	if err != nil {
		t.Fatal(err)
	}
	if _, rem := StoreFetchCost(cs, 7); !rem {
		t.Error("wrapped FetchCost reports local, want the tier's remote")
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
	// Simulate a crash: no Sync, no Close, cache dir destroyed.
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
// Sync reports the corruption, pushes the readable neighbours of the
// run it split, and leaves the remote object's previous bytes in place.
func TestTieredSyncDoesNotPushCorruptDirty(t *testing.T) {
	const n, vecLen = 6, 4
	rem := NewMemStore(n, vecLen)
	dir := t.TempDir()
	ts, err := NewTieredStore(rem, TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: n})
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < 3; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Sync(); err != nil {
		t.Fatal(err)
	}
	// Second generation of the adjacent run 0,1,2; the middle one rots.
	for vi := 0; vi < 3; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi+100)); err != nil {
			t.Fatal(err)
		}
	}
	flipCacheBit(t, ts, dir, 1, vecLen)
	if err := ts.Sync(); !IsCorruption(err) {
		t.Fatalf("Sync over a rotted dirty vector returned %v, want a corruption error", err)
	}
	buf := make([]float64, vecLen)
	for vi, gen := range []int{100, 0, 100} {
		if err := rem.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		if want := tierVec(vecLen, vi+gen); buf[0] != want[0] || buf[vecLen-1] != want[vecLen-1] {
			t.Errorf("remote vector %d = %v, want generation %d (%v)", vi, buf, gen, want)
		}
	}
	if err := ts.Sync(); !IsCorruption(err) {
		t.Errorf("the unreadable vector must stay dirty: second Sync returned %v", err)
	}
	ts.Close()
}

// TestTieredStoreRefetchesCorruptCleanCopy: a CLEAN cached copy that
// rots is dropped and re-read from the authoritative remote copy
// instead of failing the read.
func TestTieredStoreRefetchesCorruptCleanCopy(t *testing.T) {
	const n, vecLen = 4, 4
	rem := NewMemStore(n, vecLen)
	dir := t.TempDir()
	ts, err := NewTieredStore(rem, TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: n})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	want := tierVec(vecLen, 2)
	if err := ts.WriteVector(2, want); err != nil {
		t.Fatal(err)
	}
	if err := ts.Sync(); err != nil {
		t.Fatal(err)
	}
	flipCacheBit(t, ts, dir, 2, vecLen)
	buf := make([]float64, vecLen)
	if err := ts.ReadVector(2, buf); err != nil {
		t.Fatalf("read of a rotted clean copy: %v", err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("pos %d: %v != %v", i, buf[i], want[i])
		}
	}
	if st := ts.Stats(); st.RemoteReads != 1 || st.CacheMisses != 1 {
		t.Errorf("want exactly one refetch: %+v", st)
	}
}

// TestTieredStoreModel searches instead of scripting: three goroutines
// run seeded random write / read / re-read sequences on disjoint
// vectors over a cache far smaller than the working set and a
// latency-injected loopback remote, interleaved (while quiesced) with
// Sync, Close and (cold) reopen over the same remote object, and every
// read is checked against a plain map. Properties: read-your-writes
// through eviction, write-back and reopen; nothing lost when the cache
// is gone; and a miss is exactly one remote request.
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
	model := make(map[int][]float64)
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

	rng := rand.New(rand.NewSource(22))
	ts := open()
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
						v := tierVec(vecLen, r.Intn(1<<20))
						if err := ts.WriteVector(vi, v); err != nil {
							t.Errorf("write %d: %v", vi, err)
							return
						}
						mu.Lock()
						model[vi] = v
						mu.Unlock()
						continue
					}
					for reread := 0; reread < 1+r.Intn(2); reread++ {
						if err := ts.ReadVector(vi, buf); err != nil {
							t.Errorf("read %d: %v", vi, err)
							return
						}
						check(fmt.Sprintf("round %d worker %d", round, g), vi, buf)
					}
				}
			}(g, rand.New(rand.NewSource(rng.Int63())))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		switch rng.Intn(3) {
		case 0:
			if err := ts.Sync(); err != nil {
				t.Fatal(err)
			}
		case 1:
			missesAreGets(ts)
			if err := ts.Close(); err != nil {
				t.Fatal(err)
			}
			ts = open()
		}
	}
	missesAreGets(ts)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing lost: the remote object alone holds every newest vector.
	buf := make([]float64, vecLen)
	for vi := range model {
		if err := obj.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		check("remote object after close", vi, buf)
	}
}
