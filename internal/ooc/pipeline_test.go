package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/tree"
)

// gateStore blocks every WriteVector until the gate channel is closed,
// so tests can hold write-backs in the pipeline's queue and observe the
// read-after-write and barrier behaviour deterministically.
type gateStore struct {
	inner Store
	gate  chan struct{}

	mu     sync.Mutex
	writes []int
}

func (g *gateStore) ReadVector(vi int, dst []float64) error { return g.inner.ReadVector(vi, dst) }

func (g *gateStore) WriteVector(vi int, src []float64) error {
	<-g.gate
	g.mu.Lock()
	g.writes = append(g.writes, vi)
	g.mu.Unlock()
	return g.inner.WriteVector(vi, src)
}

func (g *gateStore) Close() error { return g.inner.Close() }

// lagStore delays every transfer: one vector in eight sleeps, the rest
// yield the processor, so the writer finishes late relative to the work
// the compute thread queued.
type lagStore struct{ Store }

// lagging wraps store in a lagStore.
func lagging(store Store) Store { return lagStore{store} }

func (s lagStore) lag(vi int) {
	if vi%8 == 0 {
		time.Sleep(20 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

func (s lagStore) ReadVector(vi int, dst []float64) error {
	s.lag(vi)
	return s.Store.ReadVector(vi, dst)
}

func (s lagStore) WriteVector(vi int, src []float64) error {
	s.lag(vi)
	return s.Store.WriteVector(vi, src)
}

// TestAsyncFlushBarrierAndReadAfterWrite drives the two consistency
// rules the pipeline promises: a demand read of a vector whose
// write-back is still queued is served from the queued buffer (never
// the stale store), and Flush does not return until every queued write
// has landed.
func TestAsyncFlushBarrierAndReadAfterWrite(t *testing.T) {
	const vecLen = 8
	gate := &gateStore{inner: NewMemStore(4, vecLen), gate: make(chan struct{})}
	m, err := NewManager(Config{
		NumVectors: 4, VectorLen: vecLen, Slots: 3,
		Strategy: NewLRU(4), Store: gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(vi int) {
		t.Helper()
		buf, err := m.Vector(vi, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = float64(vi + 1)
		}
	}
	fill(0)
	fill(1)
	fill(2)
	// Vector 3 misses; LRU evicts 0, whose dirty buffer enters the write
	// queue and blocks on the gate.
	fill(3)
	// Demand read of 0: its write-back has not landed (the store still
	// holds zeros), so the pipeline must serve it from the queued buffer.
	buf, err := m.Vector(0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 1 {
			t.Fatalf("read-after-write served stale data: slot[%d] = %v, want 1", i, v)
		}
	}
	ps := m.PipelineStats()
	if ps.WriteQueueHits < 1 {
		t.Errorf("expected the demand read to hit the write queue, stats: %+v", ps)
	}
	if ps.WritesQueued != 2 {
		t.Errorf("expected 2 queued write-backs (vectors 0 and 1), got %d", ps.WritesQueued)
	}

	// Flush is a barrier: it must not return while the gate holds the
	// queued writes in the store.
	done := make(chan error, 1)
	go func() { done <- m.Flush() }()
	select {
	case <-done:
		t.Fatal("Flush returned before the queued write-backs reached the store")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The store must now hold every vector's final value: the queued
	// writes (0, 1) landed before the resident flush (2, 3).
	for vi := 0; vi < 4; vi++ {
		dst := make([]float64, vecLen)
		if err := gate.inner.ReadVector(vi, dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if v != float64(vi+1) {
				t.Fatalf("store vector %d[%d] = %v, want %v", vi, i, v, float64(vi+1))
			}
		}
	}
	gate.mu.Lock()
	nw := len(gate.writes)
	gate.mu.Unlock()
	// 2 queued evictions + the 2 modified residents at Flush; resident
	// 0 was re-read clean from its queued copy and is not written again.
	if nw != 4 {
		t.Errorf("store saw %d writes (%v), want 4", nw, gate.writes)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// failStore fails reads and/or writes on demand.
type failStore struct {
	Store
	failReads, failWrites bool
}

func (f *failStore) ReadVector(vi int, dst []float64) error {
	if f.failReads {
		return fmt.Errorf("injected read failure for %d", vi)
	}
	return f.Store.ReadVector(vi, dst)
}

func (f *failStore) WriteVector(vi int, src []float64) error {
	if f.failWrites {
		return fmt.Errorf("injected write failure for %d", vi)
	}
	return f.Store.WriteVector(vi, src)
}

func TestAsyncBackgroundWriteErrorSurfaces(t *testing.T) {
	const vecLen = 4
	fs := &failStore{Store: NewMemStore(4, vecLen), failWrites: true}
	m, err := NewManager(Config{
		NumVectors: 4, VectorLen: vecLen, Slots: 3,
		Strategy: NewLRU(4), Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < 3; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
	}
	// The eviction itself queues the failing write and returns
	// immediately; the error must surface at the latest by Flush.
	_, _ = m.Vector(3, true)
	if err := m.Flush(); err == nil {
		t.Error("Flush swallowed the background write failure")
	}
	m.Close()
}

// TestAsyncFailedPrefetchUnmapsVector: a store error on a demand read
// is returned as it is, and leaves the vector unmapped and the pool
// consistent.
func TestAsyncFailedPrefetchUnmapsVector(t *testing.T) {
	const vecLen = 4
	fs := &failStore{Store: NewMemStore(8, vecLen), failReads: true}
	m, err := NewManager(Config{
		NumVectors: 8, VectorLen: vecLen, Slots: 3,
		Strategy: NewLRU(8), Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Vector(5, false)
	var re *VectorReadError
	if err == nil || errors.As(err, &re) {
		t.Fatalf("a failed read returned %v, want the store's own error", err)
	}
	if m.Resident(5) {
		t.Error("vector 5 remained resident with garbage after a failed read")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	m.Close()
}

// TestAsyncMatchesSyncRandomizedOps runs an identical randomised
// operation sequence (reads and read-skipped writes) against a
// manager over a store that answers at once (sync) and one over the
// same store made to lag (async, see lagging), and demands identical
// observable behaviour throughout: every read returns the shadow-model
// contents, every counter matches, and the flushed stores agree. The wb
// axis is whether the workload produces write-backs at all: wb=0 only
// reads a pre-seeded store, so every eviction is clean
// and nothing may be written; wb=1 mixes in read-skipped writes.
func TestAsyncMatchesSyncRandomizedOps(t *testing.T) {
	const n, vecLen, slots, ops = 32, 16, 8, 3000
	// n inner nodes need n+2 tips: the Topological case walks a real tree.
	names := make([]string, n+2)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	topo, err := tree.RandomTopology(names, rand.New(rand.NewSource(99)), 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategyName := range []string{"LRU", "LFU", "RAND", "Topological"} {
		for _, wb := range []int{0, 1} {
			name := fmt.Sprintf("%s/wb=%d", strategyName, wb)
			t.Run(name, func(t *testing.T) {
				newStrategy := func() Strategy {
					switch strategyName {
					case "LRU":
						return NewLRU(n)
					case "LFU":
						return NewLFU(n)
					case "Topological":
						return NewTopological(topo)
					default:
						return NewRandom(rand.New(rand.NewSource(1234)))
					}
				}
				run := func(async bool) (*MemStore, Stats) {
					var lag Store
					store := NewMemStore(n, vecLen)
					shadow := make([][]float64, n)
					if wb == 0 {
						for vi := range shadow {
							shadow[vi] = make([]float64, vecLen)
							for i := range shadow[vi] {
								shadow[vi][i] = float64(vi) + float64(i)/16
							}
							if err := store.WriteVector(vi, shadow[vi]); err != nil {
								t.Fatal(err)
							}
						}
					}
					lag = store
					if async {
						lag = lagging(store)
					}
					m, err := NewManager(Config{
						NumVectors: n, VectorLen: vecLen, Slots: slots,
						Strategy: newStrategy(), ReadSkipping: true,
						Store: lag,
					})
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(4321))
					for op := 0; op < ops; op++ {
						vi := rng.Intn(n)
						kind := rng.Intn(5)
						if wb == 0 && kind > 0 {
							kind = 3 // read
						}
						switch kind {
						case 1, 2:
							buf, err := m.Vector(vi, true)
							if err != nil {
								t.Fatal(err)
							}
							if shadow[vi] == nil {
								shadow[vi] = make([]float64, vecLen)
							}
							for i := range buf {
								v := float64(op*n+vi) + float64(i)/16
								buf[i] = v
								shadow[vi][i] = v
							}
						default:
							buf, err := m.Vector(vi, false)
							if err != nil {
								t.Fatal(err)
							}
							want := shadow[vi]
							for i := range buf {
								w := 0.0
								if want != nil {
									w = want[i]
								}
								if buf[i] != w {
									t.Fatalf("op %d: vector %d[%d] = %v, want %v (async=%v)",
										op, vi, i, buf[i], w, async)
								}
							}
						}
					}
					if err := m.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := m.Close(); err != nil {
						t.Fatal(err)
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					return store, m.Stats()
				}
				syncStore, syncStats := run(false)
				asyncStore, asyncStats := run(true)
				if syncStats != asyncStats {
					t.Errorf("counters diverged:\n sync %+v\nasync %+v", syncStats, asyncStats)
				}
				if wrote := syncStats.Writes > 0; wrote != (wb == 1) || syncStats.SkippedWrites == 0 {
					t.Errorf("wb=%d: %d writes, %d skipped", wb, syncStats.Writes, syncStats.SkippedWrites)
				}
				dst1 := make([]float64, vecLen)
				dst2 := make([]float64, vecLen)
				for vi := 0; vi < n; vi++ {
					if err := syncStore.ReadVector(vi, dst1); err != nil {
						t.Fatal(err)
					}
					if err := asyncStore.ReadVector(vi, dst2); err != nil {
						t.Fatal(err)
					}
					for i := range dst1 {
						if dst1[i] != dst2[i] {
							t.Fatalf("flushed stores differ at vector %d[%d]: sync %v, async %v",
								vi, i, dst1[i], dst2[i])
						}
					}
				}
			})
		}
	}
}

// TestFileStoreConcurrentAccess hammers a FileStore
// with concurrent distinct-vector traffic — the satellite fix replacing
// the shared scratch buffer. Run under -race this fails loudly on any
// shared codec state.
func TestFileStoreConcurrentAccess(t *testing.T) {
	const n, vecLen, workers = 64, 192, 8
	stores := map[string]Store{}
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "single.bin"), n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	stores["FileStore"] = fs

	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			defer store.Close()
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]float64, vecLen)
					for vi := w; vi < n; vi += workers {
						for i := range buf {
							buf[i] = float64(vi*vecLen + i)
						}
						if err := store.WriteVector(vi, buf); err != nil {
							errs <- err
							return
						}
						got := make([]float64, vecLen)
						if err := store.ReadVector(vi, got); err != nil {
							errs <- err
							return
						}
						for i := range got {
							if got[i] != buf[i] {
								errs <- fmt.Errorf("worker %d vector %d[%d]: got %v want %v",
									w, vi, i, got[i], buf[i])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			// Concurrent same-vector reads are also part of the contract.
			var rg sync.WaitGroup
			rerrs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					got := make([]float64, vecLen)
					if err := store.ReadVector(7, got); err != nil {
						rerrs <- err
						return
					}
					if got[3] != float64(7*vecLen+3) {
						rerrs <- errors.New("concurrent read returned corrupt data")
					}
				}()
			}
			rg.Wait()
			close(rerrs)
			for err := range rerrs {
				t.Error(err)
			}
		})
	}
}
