package ooc

import (
	"fmt"
	"slices"
	"testing"
	"time"
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

// TestFaultStoreDiceFollowVectorHistory: below the caps, the faults a
// vector sees depend on its own calls alone. Two FaultStores see the
// same per-vector call histories in two global orders, as the async
// pipeline's workers may issue them, and must inject the same faults at
// the same calls.
func TestFaultStoreDiceFollowVectorHistory(t *testing.T) {
	const n, vl, calls = 8, 16, 24
	cfg := FaultConfig{
		Seed:     11,
		PReadErr: 0.2, MaxReadErrs: 1000,
		PTornWrite: 0.3, MaxTornWrites: 1000,
		PBitFlip: 0.3, MaxBitFlips: 1000,
	}
	// Call c of vector vi writes on even c and reads on odd c; each call
	// leaves what the medium holds after a write, or what a read returned.
	run := func(order [][2]int) (map[[2]int]string, FaultStats) {
		inner := NewMemStore(n, vl)
		fs := NewFaultStore(inner, cfg)
		seen := make(map[[2]int]string)
		v := make([]float64, vl)
		for _, call := range order {
			vi, c := call[0], call[1]
			fillVec(v, vi*calls+c)
			if c%2 == 0 {
				if err := fs.WriteVector(vi, v); err != nil {
					t.Fatal(err)
				}
				seen[call] = fmt.Sprint(inner.data[vi])
			} else {
				err := fs.ReadVector(vi, v)
				seen[call] = fmt.Sprint(v, err)
			}
		}
		return seen, fs.Stats()
	}
	var byVector, interleaved [][2]int
	for vi := 0; vi < n; vi++ {
		for c := 0; c < calls; c++ {
			byVector = append(byVector, [2]int{vi, c})
		}
	}
	for c := 0; c < calls; c++ {
		for vi := n - 1; vi >= 0; vi-- {
			interleaved = append(interleaved, [2]int{vi, c})
		}
	}
	a, sa := run(byVector)
	b, sb := run(interleaved)
	if sa != sb {
		t.Errorf("faults injected: %+v in one order, %+v in the other", sa, sb)
	}
	if sa.ReadErrs == 0 || sa.TornWrites == 0 || sa.BitFlips == 0 {
		t.Errorf("want every fault kind injected: %+v", sa)
	}
	for call, got := range a {
		if b[call] != got {
			t.Errorf("vector %d call %d: %s in one order, %s in the other", call[0], call[1], got, b[call])
		}
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
	cs := newChecked(t, fs, n, vl)
	buf := make([]float64, vl)
	fillVec(buf, 1)
	// The torn write reports success...
	if err := cs.put(1, buf); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().TornWrites != 1 {
		t.Fatal("torn write was not injected")
	}
	// ...but the manager's next read must catch the mismatch.
	got := make([]float64, vl)
	if err := cs.get(1, got); !IsCorruption(err) {
		t.Fatalf("torn write not detected: %v", err)
	}
	// Rewriting (cap exhausted) heals it.
	if err := cs.put(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.get(1, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestFaultBitFlipCaughtByChecksum(t *testing.T) {
	n, vl := 2, 8
	fs := NewFaultStore(NewMemStore(n, vl), FaultConfig{Seed: 6, PBitFlip: 1, MaxBitFlips: 1})
	cs := newChecked(t, fs, n, vl)
	buf := make([]float64, vl)
	fillVec(buf, 0)
	if err := cs.put(0, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vl)
	if err := cs.get(0, got); !IsCorruption(err) {
		t.Fatalf("bit flip not detected: %v", err)
	}
	// The flip hit the transfer, not the medium: the next read is clean.
	if err := cs.get(0, got); err != nil {
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
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: 3, Strategy: NewLRU(n),
		ReadSkipping: false, Store: inner,
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
}

// TestFaultAsyncFailedJoinNotLedgered: a demand read that fails must
// not leave the hit or read ledgers counting an access that never
// delivered data, nor the vector mapped.
func TestFaultAsyncFailedJoinNotLedgered(t *testing.T) {
	n, vl := 8, 4
	base := NewMemStore(n, vl)
	want := []float64{4, 3, 2, 1}
	if err := base.WriteVector(0, want); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(base, FaultConfig{Seed: 8, PReadErr: 1, MaxReadErrs: 1})
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: 3, Strategy: NewLRU(n),
		ReadSkipping: true, Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Vector(0, false); err == nil {
		t.Fatal("a failed read reported success")
	}
	if st := m.Stats(); st.Hits != 0 || st.Reads != 0 || st.BytesRead != 0 {
		t.Errorf("failed read ledgered a hit or a read: %+v", st)
	}
	if m.Resident(0) {
		t.Error("vector 0 stayed mapped after its read failed")
	}
	// The demand path works once the fault budget is exhausted.
	v, err := m.Vector(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v, want) {
		t.Fatalf("got %v, want %v", v, want)
	}
	if st := m.Stats(); st.Misses != 2 || st.Reads != 1 || st.BytesRead != int64(vl)*8 {
		t.Errorf("successful demand read not ledgered once: %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultTornWritePendingThenCaught: a torn write-back whose buffer
// the writer still holds serves reads of its vector from that buffer,
// so they are whole and nothing is reported corrupt; the first read
// after reclaimOldest took the buffer back (here at Flush's barrier)
// goes to the store, and the manager's check reports the tear.
func TestFaultTornWritePendingThenCaught(t *testing.T) {
	const n, vl = 8, 4
	fs := NewFaultStore(NewMemStore(n, vl), FaultConfig{Seed: 3, PTornWrite: 1, MaxTornWrites: 1})
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vl, Slots: MinSlots, Strategy: NewLRU(n),
		ReadSkipping: true, Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want := []float64{1, 2, 3, 4}
	write := func(vi int) {
		t.Helper()
		v, err := m.Vector(vi, true)
		if err != nil {
			t.Fatal(err)
		}
		copy(v, want)
	}
	// Vector 0's eviction is the first write-back, and it tears.
	for vi := 0; vi <= MinSlots; vi++ {
		write(vi)
	}
	// Let the writer reach the store, so the medium holds the tear.
	for deadline := time.Now().Add(5 * time.Second); fs.Stats().TornWrites == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if m.Resident(0) || fs.Stats().TornWrites != 1 {
		t.Fatalf("vector 0 resident %v, %d torn writes; want it evicted by a torn write", m.Resident(0), fs.Stats().TornWrites)
	}
	got, err := m.Vector(0, false)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("read of vector 0 while its write is pending = %v, %v; want %v", got, err, want)
	}
	if ps := m.PipelineStats(); ps.CorruptReads != 0 || ps.WriteQueueHits != 1 {
		t.Fatalf("pending read: %d corrupt reads, %d write-queue hits; want 0 and 1", ps.CorruptReads, ps.WriteQueueHits)
	}
	// Evict vector 0 again (clean: no second write-back), then take
	// every queued buffer back.
	for vi := MinSlots + 1; vi < n; vi++ {
		write(vi)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Resident(0) {
		t.Fatal("vector 0 still resident")
	}
	if _, err := m.Vector(0, false); !IsCorruption(err) {
		t.Fatalf("read of vector 0 after its buffer was taken back: %v, want corruption", err)
	}
	if cr := m.PipelineStats().CorruptReads; cr != 1 {
		t.Errorf("CorruptReads = %d, want 1", cr)
	}
}
