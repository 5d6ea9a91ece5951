package ooc

import (
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/obs"
)

// TestInstrumentTieredStore checks that the mirrored tier counters and
// the native remote-latency histogram land on a registry snapshot.
func TestInstrumentTieredStore(t *testing.T) {
	const n, vecLen = 12, 8
	ts, _, _ := newTierFixture(t, n, vecLen, 4,
		iosim.Device{Latency: 2 * time.Millisecond, Bandwidth: 1e9})
	defer ts.Close()
	reg := obs.NewRegistry()
	InstrumentTieredStore(reg, ts)

	for vi := 0; vi < n; vi++ {
		if err := ts.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	// Read back newest-first: the last writes still sit in the 4-slot
	// cache (hits), the rest come back from the remote tier (misses).
	buf := make([]float64, vecLen)
	for vi := n - 1; vi >= 0; vi-- {
		if err := ts.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	st := ts.Stats()
	for name, want := range map[string]int64{
		"tier.cache_hits":             st.CacheHits,
		"tier.cache_misses":           st.CacheMisses,
		"tier.remote_reads":           st.RemoteReads,
		"tier.remote_writes":          st.RemoteWrites,
		"tier.remote_vectors_read":    st.RemoteVectorsRead,
		"tier.bytes_fetched":          st.BytesFetched,
		"tier.bytes_from_cache":       st.BytesFromCache,
		"tier.evictions":              st.Evictions,
		"tier.dirty_writebacks":       st.DirtyWritebacks,
		"tier.remote_vectors_written": st.RemoteVectorsWritten,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if st.RemoteReads == 0 || st.CacheHits == 0 {
		t.Fatalf("workload produced no tier traffic: %+v", st)
	}
	h, ok := s.Histograms["tier.remote_seconds"]
	if !ok || h.Count == 0 {
		t.Errorf("remote latency histogram empty: ok=%v count=%d", ok, h.Count)
	}
	// Every remote request (reads, eviction write-backs)
	// must have been observed exactly once.
	if want := st.RemoteReads + st.RemoteWrites; h.Count != want {
		t.Errorf("histogram count %d, want %d remote requests", h.Count, want)
	}
}

// TestManagerTierBudget exercises the manager-level tier hook:
// MemOverheadBytes reports the cache tier's heap, which a resize to a
// byte grant charges first.
func TestManagerTierBudget(t *testing.T) {
	const n, vecLen = 16, 8
	ts, _, _ := newTierFixture(t, n, vecLen, 8, iosim.Device{})
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: 4,
		Strategy: NewLRU(n), Store: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < n; vi++ {
		v, err := m.Vector(vi, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = float64(vi)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	if m.MemOverheadBytes() <= 0 {
		t.Error("a tiered store must report cache-tier overhead")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
