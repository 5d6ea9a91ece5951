package ooc

import (
	"testing"

	"oocphylo/internal/iosim"
)

func TestTieredStoreCacheAndWriteBack(t *testing.T) {
	remote := NewMemStore(10, 4)
	ts, err := NewTieredStore(remote, TieredConfig{
		NumVectors: 10, VectorLen: 4,
		CacheDir: t.TempDir(), CacheVectors: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := func(vi int, v float64) {
		if err := ts.WriteVector(vi, []float64{v, v, v, v}); err != nil {
			t.Fatal(err)
		}
	}
	r := func(vi int) float64 {
		buf := make([]float64, 4)
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		return buf[0]
	}
	w(0, 10)
	w(1, 11)
	w(2, 12) // evicts 0 (LRU): dirty, so it is pushed to the remote tier first
	st := ts.Stats()
	if st.Evictions != 1 || st.DirtyWritebacks != 1 {
		t.Errorf("evictions = %d, dirty writebacks = %d, want 1 and 1", st.Evictions, st.DirtyWritebacks)
	}
	if got := r(0); got != 10 { // refetched from the remote tier
		t.Errorf("read(0) = %v", got)
	}
	if st := ts.Stats(); st.RemoteReads == 0 || st.CacheMisses == 0 {
		t.Errorf("expected a remote fetch for the evicted vector: %+v", st)
	}
	if got := r(2); got != 12 { // cache hit
		t.Errorf("read(2) = %v", got)
	}
	if st := ts.Stats(); st.CacheHits == 0 {
		t.Errorf("expected a cache hit: %+v", st)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// Eviction pushed 0 and 1 (the refetch of 0 evicted 1); Close
	// discards the still-dirty 2 instead of pushing it.
	buf := make([]float64, 4)
	for vi, want := range map[int]float64{0: 10, 1: 11, 2: 0} {
		if err := remote.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Errorf("remote[%d] = %v, want %v", vi, buf[0], want)
		}
	}
	if _, err := NewTieredStore(remote, TieredConfig{
		NumVectors: 10, VectorLen: 4, CacheDir: t.TempDir(), CacheVectors: 0,
	}); err == nil {
		t.Error("zero cache capacity must fail")
	}
}

func TestTieredStoreWithSimulatedRemote(t *testing.T) {
	// Cache tier = local disk, remote tier = an HDD-priced device: the
	// three-layer hierarchy the paper sketches (§5) with per-tier cost
	// accounting. Rereads must be served locally, not re-charged.
	var remoteClock iosim.Clock
	remote := NewSimStore(NewMemStore(8, 16), iosim.HDD(), &remoteClock)
	ts, err := NewTieredStore(remote, TieredConfig{
		NumVectors: 8, VectorLen: 16,
		CacheDir: t.TempDir(), CacheVectors: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	buf := make([]float64, 16)
	for vi := 0; vi < 8; vi++ {
		if err := ts.WriteVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	before := remoteClock.Ops()
	for vi := 0; vi < 8; vi++ {
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := remoteClock.Ops(); got != before {
		t.Errorf("cached reads charged the remote device: %d ops before, %d after", before, got)
	}
	if st := ts.Stats(); st.CacheHits != 8 {
		t.Errorf("cache hits = %d, want 8", st.CacheHits)
	}
}
