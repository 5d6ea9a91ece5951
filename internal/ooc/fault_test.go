package ooc

import (
	"path/filepath"
	"testing"
)

func TestFaultStoreDeterministic(t *testing.T) {
	// The same seed over the same operation sequence must inject the
	// same faults at the same operations.
	run := func() (errsAt []int, stats FaultStats) {
		fs := NewFaultStore(NewMemStore(8, 4), FaultConfig{
			Seed: 7, PReadErr: 0.5, MaxReadErrs: 3, PBitFlip: 0.5, MaxBitFlips: 3,
		})
		buf := make([]float64, 4)
		for i := 0; i < 20; i++ {
			if err := fs.ReadVector(i%8, buf); err != nil {
				errsAt = append(errsAt, i)
			}
		}
		return errsAt, fs.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("error positions diverged: %v vs %v", e1, e2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("error positions diverged: %v vs %v", e1, e2)
		}
	}
	if s1.ReadErrs != 3 {
		t.Errorf("p=0.5 over 20 ops should exhaust the cap of 3, got %d", s1.ReadErrs)
	}
}

func TestFaultStoreCapsBound(t *testing.T) {
	// A category without a cap must never fire, no matter the probability.
	fs := NewFaultStore(NewMemStore(4, 4), FaultConfig{Seed: 1, PReadErr: 1})
	buf := make([]float64, 4)
	for i := 0; i < 10; i++ {
		if err := fs.ReadVector(0, buf); err != nil {
			t.Fatalf("capless category fired: %v", err)
		}
	}
	if total := fs.Stats().Total(); total != 0 {
		t.Errorf("injected %d faults with no caps set", total)
	}
}

func TestFaultTornWriteCaughtByChecksum(t *testing.T) {
	n, vl := 2, 8
	fs := NewFaultStore(NewMemStore(n, vl), FaultConfig{Seed: 5, PTornWrite: 1, MaxTornWrites: 1})
	cs, err := NewChecksumStore(fs, filepath.Join(t.TempDir(), "v.sum"), n, vl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	buf := make([]float64, vl)
	fillVec(buf, 1)
	// The torn write reports success...
	if err := cs.WriteVector(1, buf); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().TornWrites != 1 {
		t.Fatal("torn write was not injected")
	}
	// ...but the next read must catch the mismatch.
	got := make([]float64, vl)
	if err := cs.ReadVector(1, got); !IsCorruption(err) {
		t.Fatalf("torn write not detected: %v", err)
	}
	// Rewriting (cap exhausted) heals it.
	if err := cs.WriteVector(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.ReadVector(1, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestFaultBitFlipCaughtByChecksum(t *testing.T) {
	n, vl := 2, 8
	fs := NewFaultStore(NewMemStore(n, vl), FaultConfig{Seed: 6, PBitFlip: 1, MaxBitFlips: 1})
	cs, err := NewChecksumStore(fs, filepath.Join(t.TempDir(), "v.sum"), n, vl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	buf := make([]float64, vl)
	fillVec(buf, 0)
	if err := cs.WriteVector(0, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vl)
	if err := cs.ReadVector(0, got); !IsCorruption(err) {
		t.Fatalf("bit flip not detected: %v", err)
	}
	// The flip hit the transfer, not the medium: the next read is clean.
	if err := cs.ReadVector(0, got); err != nil {
		t.Fatalf("read after transfer flip: %v", err)
	}
}

func TestFaultCorruptReadWithWriteIntentIsSkipped(t *testing.T) {
	// A corrupt fault-in for a caller that is about to overwrite the
	// whole vector must behave like a skipped read, not a fatal error —
	// this is what lets the engine recompute corrupted vectors without
	// read skipping enabled.
	n, vl := 6, 4
	inner := NewMemStore(n, vl)
	cs, err := NewChecksumStore(inner, filepath.Join(t.TempDir(), "v.sum"), n, vl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: 3, Strategy: NewLRU(n),
		ReadSkipping: false, Store: cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Vector(0, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(v, []float64{1, 2, 3, 4})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Evict vector 0 by filling the slots, then corrupt its stored copy.
	for vi := 1; vi <= 3; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
	}
	if m.Resident(0) {
		t.Fatal("vector 0 still resident; eviction setup wrong")
	}
	if err := inner.WriteVector(0, []float64{0, 0, 0, 99}); err != nil {
		t.Fatal(err)
	}
	// Read intent: the corruption is fatal to this access.
	if _, err := m.Vector(0, false); !IsCorruption(err) {
		t.Fatalf("read-intent access of corrupt vector: %v", err)
	}
	// Write intent: the corrupt payload is irrelevant; the access
	// succeeds as if the read had been skipped.
	v, err = m.Vector(0, true)
	if err != nil {
		t.Fatalf("write-intent access of corrupt vector: %v", err)
	}
	copy(v, []float64{5, 6, 7, 8})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Vector(0, false); err != nil || got[0] != 5 {
		t.Fatalf("healed vector: %v err %v", got, err)
	}
	if cr := m.PipelineStats().CorruptReads; cr != 2 {
		t.Errorf("CorruptReads = %d, want 2 (one fatal, one swallowed)", cr)
	}
	m.Close()
	cs.Close()
}

func TestFaultAsyncFailedJoinNotLedgered(t *testing.T) {
	// A prefetch whose background fetch fails must not leave the hit or
	// read ledgers counting an access that never delivered data.
	n, vl := 8, 4
	base := NewMemStore(n, vl)
	want := []float64{4, 3, 2, 1}
	if err := base.WriteVector(0, want); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(base, FaultConfig{Seed: 8, PReadErr: 1, MaxReadErrs: 1})
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: 3, Strategy: NewLRU(n),
		ReadSkipping: true, Store: fs, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prefetch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Vector(0, false); err == nil {
		t.Fatal("join of failed fetch reported success")
	}
	st, pf := m.Stats(), m.PrefetchStats()
	if st.Hits != 0 {
		t.Errorf("failed join ledgered a hit: %+v", st)
	}
	if pf.Reads != 0 || st.BytesRead != 0 {
		t.Errorf("failed fetch ledgered a read: pf=%+v bytes=%d", pf, st.BytesRead)
	}
	// The demand path works once the fault budget is exhausted.
	v, err := m.Vector(0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("got %v, want %v", v, want)
		}
	}
	st, pf = m.Stats(), m.PrefetchStats()
	if st.Reads != 1 || st.BytesRead != int64(vl)*8 {
		t.Errorf("successful demand read not ledgered: %+v", st)
	}
	if pf.Reads != 0 {
		t.Errorf("demand read ledgered as prefetch: %+v", pf)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultAsyncEvictDropsFailedStageIn(t *testing.T) {
	// Evicting a slot whose stage-in failed must drop the buffer, not
	// write garbage over the store's authoritative copy.
	n, vl := 8, 4
	base := NewMemStore(n, vl)
	want := []float64{11, 12, 13, 14}
	if err := base.WriteVector(0, want); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(base, FaultConfig{Seed: 9, PReadErr: 1, MaxReadErrs: 1})
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: 3, Strategy: NewLRU(n),
		ReadSkipping: true,
		Store:        fs, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prefetch(0); err != nil { // background fetch fails
		t.Fatal(err)
	}
	// Fill the remaining slots, then one more: vector 0's slot is the
	// LRU victim and its failed stage-in must be dropped on eviction.
	for vi := 1; vi <= 3; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
	}
	if m.Resident(0) {
		t.Fatal("vector 0 still resident after eviction pressure")
	}
	if d := m.PipelineStats().DroppedWritebacks; d != 1 {
		t.Errorf("DroppedWritebacks = %d, want 1", d)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vl)
	if err := base.ReadVector(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("store copy clobbered by dropped write-back: %v, want %v", got, want)
		}
	}
}
