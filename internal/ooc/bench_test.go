package ooc

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

func benchManager(b *testing.B, n, vecLen, slots int, strat Strategy, store Store) *Manager {
	b.Helper()
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: strat, ReadSkipping: true, Store: store,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkVectorHit(b *testing.B) {
	m := benchManager(b, 100, 1024, 100, NewLRU(100), NewMemStore(100, 1024))
	if _, err := m.Vector(0, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Vector(0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorMissMemStore(b *testing.B) {
	n := 256
	m := benchManager(b, n, 1024, MinSlots, NewLRU(n), NewMemStore(n, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Round-robin through more items than slots: every access misses.
		if _, err := m.Vector(i%n, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Stats().MissRate()*100, "miss%")
}

func BenchmarkVectorMissFileStore(b *testing.B) {
	n := 64
	vecLen := 4096 // 32 KiB vectors
	store, err := NewFileStore(filepath.Join(b.TempDir(), "v.bin"), n, vecLen)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	m := benchManager(b, n, vecLen, MinSlots, NewLRU(n), store)
	b.SetBytes(int64(vecLen) * 8 * 2) // one read + one write per swap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Vector(i%n, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyPickVictim(b *testing.B) {
	cands := make([]int, 512)
	for i := range cands {
		cands[i] = i
	}
	b.Run("LRU", func(b *testing.B) {
		s := NewLRU(1024)
		for _, c := range cands {
			s.Touch(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.PickVictim(cands, 600)
		}
	})
	b.Run("LFU", func(b *testing.B) {
		s := NewLFU(1024)
		for _, c := range cands {
			s.Touch(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.PickVictim(cands, 600)
		}
	})
	b.Run("Random", func(b *testing.B) {
		s := NewRandom(rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.PickVictim(cands, 600)
		}
	})
}

// BenchmarkAsyncPipeline prices the backing store like the Figure-5
// device model (SimStore sleeping for its modelled transfer time) and
// runs full tree traversals — the least-local access pattern — with the
// synchronous manager and with the async pipeline at several prefetch
// depths. The stall-ns/op metric is the compute thread's measured I/O
// wait per traversal; the pipeline's job is to shrink it while leaving
// the likelihood and miss counters untouched.
func BenchmarkAsyncPipeline(b *testing.B) {
	// Dimensions match the internal/experiments ablation defaults: per-step
	// compute must be comparable to one vector transfer for overlap to be
	// visible (compute grows with patterns×k², transfer with patterns×k).
	d, err := sim.NewDataset(sim.Config{Taxa: 128, Sites: 1024, GammaAlpha: 0.8, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	dev := iosim.Device{Name: "nvme", Latency: 150 * time.Microsecond, Bandwidth: 2e9}
	bench := func(b *testing.B, async bool, depth int) {
		tr := d.Tree.Clone()
		n := tr.NumInner()
		vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
		var clock iosim.Clock
		store := NewSimStore(NewMemStore(n, vecLen), dev, &clock)
		store.Realtime = 1
		m, err := NewManager(Config{
			NumVectors: n, VectorLen: vecLen,
			Slots:        SlotsForFraction(0.25, n),
			Strategy:     NewLRU(n),
			ReadSkipping: true,
			Store:        store,
			Async:        async, IOWorkers: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		e, err := plf.New(tr, d.Patterns, d.Model, m)
		if err != nil {
			b.Fatal(err)
		}
		e.EnablePrefetch(true)
		e.SetPrefetchDepth(depth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.FullTraversal(tr.Edges[0]); err != nil {
				b.Fatal(err)
			}
			if _, err := e.LogLikelihoodAt(tr.Edges[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stall := m.PipelineStats().StallTime
		b.ReportMetric(float64(stall.Nanoseconds())/float64(b.N), "stall-ns/op")
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sync", func(b *testing.B) { bench(b, false, 1) })
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("async-d%d", depth), func(b *testing.B) { bench(b, true, depth) })
	}
}

func BenchmarkFileStoreRoundTrip(b *testing.B) {
	vecLen := 16384 // 128 KiB, a realistic small vector
	store, err := NewFileStore(filepath.Join(b.TempDir(), "rt.bin"), 4, vecLen)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	buf := make([]float64, vecLen)
	b.SetBytes(int64(vecLen) * 8 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteVector(i%4, buf); err != nil {
			b.Fatal(err)
		}
		if err := store.ReadVector(i%4, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// checksumVecLens are the vector lengths (in float64s) of the three
// out-of-core benchmark workloads: 76.8 kB, 128 kB and 153.6 kB.
var checksumVecLens = []int{9600, 16000, 19200}

var checksumSink uint64

// BenchmarkVectorChecksum prices the sum every verified read and write
// pays, next to the table-driven hash/crc64 (ECMA) it replaced. The
// reference row lives here only, so the ratio can be re-derived on any
// host.
func BenchmarkVectorChecksum(b *testing.B) {
	ecma := crc64.MakeTable(crc64.ECMA)
	sums := []struct {
		name string
		sum  func([]float64) uint64
	}{
		{"crc32c", func(v []float64) uint64 { return uint64(vectorChecksum(v)) }},
		{"crc64-reference", func(v []float64) uint64 { return crc64.Checksum(f64Bytes(v), ecma) }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, vecLen := range checksumVecLens {
		v := make([]float64, vecLen)
		for i := range v {
			v[i] = rng.Float64()
		}
		for _, s := range sums {
			b.Run(fmt.Sprintf("%s/%.1fkB", s.name, float64(vecLen)*8/1e3), func(b *testing.B) {
				b.SetBytes(int64(vecLen) * 8)
				for i := 0; i < b.N; i++ {
					checksumSink += s.sum(v)
				}
			})
		}
	}
}
