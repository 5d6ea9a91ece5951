package ooc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"oocphylo/internal/tree"
)

func testManager(t *testing.T, n, vecLen, slots int, strat Strategy, readSkip bool) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumVectors:   n,
		VectorLen:    vecLen,
		Slots:        slots,
		Strategy:     strat,
		ReadSkipping: readSkip,
		Store:        NewMemStore(n, vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerBasicHitMiss(t *testing.T) {
	m := testManager(t, 10, 4, 3, NewLRU(10), false)
	// First touch: miss.
	v, err := m.Vector(0, true)
	if err != nil {
		t.Fatal(err)
	}
	copy(v, []float64{1, 2, 3, 4})
	// Second touch: hit, data intact.
	v2, err := m.Vector(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if v2[2] != 3 {
		t.Error("hit returned wrong data")
	}
	st := m.Stats()
	if st.Requests != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats: %+v", st)
	}
	if !m.Resident(0) || m.Resident(5) {
		t.Error("residency wrong")
	}
}

func TestManagerSwapRoundTrip(t *testing.T) {
	// Fill all vectors with distinct data, then cycle them through 3
	// slots; every readback must match.
	n, vl := 12, 6
	m := testManager(t, n, vl, 3, NewLRU(n), false)
	for vi := 0; vi < n; vi++ {
		v, err := m.Vector(vi, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = float64(vi*100 + j)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		vi := rng.Intn(n)
		v, err := m.Vector(vi, false)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			if v[j] != float64(vi*100+j) {
				t.Fatalf("vector %d corrupted at %d: %v", vi, j, v[j])
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Misses == 0 {
		t.Error("workload should have missed")
	}
}

func TestPinningExcludesFromEviction(t *testing.T) {
	m := testManager(t, 10, 2, 3, NewLRU(10), false)
	// Make 0, 1, 2 resident (0 is LRU-oldest).
	for vi := 0; vi < 3; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
	}
	// Fault 5 with 0 pinned: the LRU victim would be 0, but the pin must
	// divert eviction to 1.
	if _, err := m.Vector(5, true, 0); err != nil {
		t.Fatal(err)
	}
	if !m.Resident(0) {
		t.Error("pinned vector was evicted")
	}
	if m.Resident(1) {
		t.Error("expected 1 to be the diverted victim")
	}
}

func TestAllPinnedError(t *testing.T) {
	m := testManager(t, 10, 2, 3, NewLRU(10), false)
	for vi := 0; vi < 3; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Vector(7, true, 0, 1, 2); err != ErrAllPinned {
		t.Errorf("expected ErrAllPinned, got %v", err)
	}
}

func TestReadSkipping(t *testing.T) {
	n, vl := 8, 4
	withSkip := testManager(t, n, vl, 3, NewLRU(n), true)
	without := testManager(t, n, vl, 3, NewLRU(n), false)
	drive := func(m *Manager) Stats {
		for round := 0; round < 5; round++ {
			for vi := 0; vi < n; vi++ {
				if _, err := m.Vector(vi, true); err != nil { // write-intent
					t.Fatal(err)
				}
			}
		}
		return m.Stats()
	}
	a, b := drive(withSkip), drive(without)
	if a.Misses != b.Misses {
		t.Errorf("read skipping must not change miss behaviour: %d vs %d", a.Misses, b.Misses)
	}
	if a.Reads != 0 {
		t.Errorf("all accesses were write-intent; reads should be 0, got %d", a.Reads)
	}
	if a.SkippedReads != a.Misses {
		t.Errorf("every miss should have skipped its read: %d vs %d", a.SkippedReads, a.Misses)
	}
	if b.Reads != b.Misses {
		t.Errorf("without skipping, reads must equal misses: %d vs %d", b.Reads, b.Misses)
	}
	if a.ReadRate() >= b.ReadRate() {
		t.Error("read skipping should lower the read rate")
	}
}

// TestWriteBackDirtySkipsCleanEvictions pins the one write-back rule —
// a vector reaches the store iff it was modified since it was faulted
// in — on each of the three paths that can write one back: eviction,
// Resize shrink and Flush, sync and async.
func TestWriteBackDirtySkipsCleanEvictions(t *testing.T) {
	const n, vl = 10, 4
	for _, async := range []bool{false, true} {
		for _, write := range []bool{false, true} {
			async, write := async, write
			t.Run(fmt.Sprintf("async=%v/write=%v", async, write), func(t *testing.T) {
				store := NewMemStore(n, vl)
				for vi := 0; vi < n; vi++ {
					if err := store.WriteVector(vi, []float64{float64(vi), 0, 0, 0}); err != nil {
						t.Fatal(err)
					}
				}
				m, err := NewManager(Config{
					NumVectors: n, VectorLen: vl, Slots: 4,
					Strategy: NewLRU(n), Store: store, Async: async,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				// get faults vi in (or hits it); with intent it also
				// modifies the vector, which is what makes it dirty.
				get := func(vi int, intent bool) {
					t.Helper()
					v, err := m.Vector(vi, intent)
					if err != nil {
						t.Fatal(err)
					}
					if v[0] != float64(vi) {
						t.Fatalf("vector %d holds %v", vi, v[0])
					}
					if intent {
						v[1]++
					}
				}
				// step runs f, which writes back exactly one vector under
				// test, and checks where that write-back was ledgered.
				step := func(name string, f func() error) {
					t.Helper()
					before := m.Stats()
					if err := f(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					after := m.Stats()
					wantW, wantS := int64(0), int64(1)
					if write {
						wantW, wantS = 1, 0
					}
					if dw, ds := after.Writes-before.Writes, after.SkippedWrites-before.SkippedWrites; dw != wantW || ds != wantS {
						t.Errorf("%s: Writes +%d SkippedWrites +%d, want +%d +%d", name, dw, ds, wantW, wantS)
					}
				}

				get(0, write) // the only resident
				step("flush", m.Flush)

				get(0, write) // hit; dirty again under write intent
				for vi := 1; vi <= 3; vi++ {
					get(vi, false)
				}
				step("evict", func() error { _, err := m.Vector(4, false); return err }) // LRU victim: 0

				get(5, write) // evicts clean 1
				for vi := 2; vi <= 4; vi++ {
					get(vi, false) // hits, so 5 becomes the LRU victim
				}
				step("shrink", func() error { return m.Resize(3) })

				// What was modified — and only that — is in the store.
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, vl)
				for vi, want := range map[int]float64{0: 2, 5: 1, 2: 0} {
					if !write {
						want = 0
					}
					if err := store.ReadVector(vi, got); err != nil {
						t.Fatal(err)
					}
					if got[0] != float64(vi) || got[1] != want {
						t.Errorf("store vector %d = %v, want [%d %v 0 0]", vi, got, vi, want)
					}
				}
			})
		}
	}
}

func TestSlotsCappedAtN(t *testing.T) {
	m := testManager(t, 4, 2, 100, NewLRU(4), false)
	if m.Slots() != 4 {
		t.Errorf("slots = %d, want capped at 4", m.Slots())
	}
	// f = 1: never a miss after first touches.
	for round := 0; round < 3; round++ {
		for vi := 0; vi < 4; vi++ {
			if _, err := m.Vector(vi, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := m.Stats(); st.Misses != 4 {
		t.Errorf("with m = n only cold misses occur: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	store := NewMemStore(10, 4)
	if _, err := NewManager(Config{NumVectors: 10, VectorLen: 4, Slots: 2, Strategy: NewLRU(10), Store: store}); err == nil {
		t.Error("slots below MinSlots must fail")
	}
	if _, err := NewManager(Config{NumVectors: 10, VectorLen: 4, Slots: 5, Store: store}); err == nil {
		t.Error("missing strategy must fail")
	}
	if _, err := NewManager(Config{NumVectors: 10, VectorLen: 4, Slots: 5, Strategy: NewLRU(10)}); err == nil {
		t.Error("missing store must fail")
	}
	if _, err := NewManager(Config{NumVectors: 10, VectorLen: 0, Slots: 5, Strategy: NewLRU(10), Store: store}); err == nil {
		t.Error("zero vector length must fail")
	}
	// Tiny trees: slots may be below MinSlots when n itself is smaller.
	if _, err := NewManager(Config{NumVectors: 2, VectorLen: 4, Slots: 2, Strategy: NewLRU(2), Store: NewMemStore(2, 4)}); err != nil {
		t.Errorf("n=2, m=2 should be accepted: %v", err)
	}
}

func TestVectorIndexBounds(t *testing.T) {
	m := testManager(t, 5, 2, 3, NewLRU(5), false)
	if _, err := m.Vector(-1, false); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := m.Vector(5, false); err == nil {
		t.Error("index == n must fail")
	}
}

func TestSlotsForFraction(t *testing.T) {
	cases := []struct {
		f    float64
		n    int
		want int
	}{
		{0.25, 100, 25},
		{0.5, 100, 50},
		{1.0, 100, 100},
		{2.0, 100, 100}, // capped
		{0.001, 100, 3}, // floor at MinSlots
		{0.25, 10, 3},   // rounded then floored
		{0.5, 5, 3},
	}
	for _, c := range cases {
		if got := SlotsForFraction(c.f, c.n); got != c.want {
			t.Errorf("SlotsForFraction(%v, %d) = %d, want %d", c.f, c.n, got, c.want)
		}
	}
}

// TestSlotsForBytes pins the -L rule: grant × store overhead × n, with
// the MinSlots floor and the cap at n.
func TestSlotsForBytes(t *testing.T) {
	const vecBytes = 1000
	cases := []struct {
		grant, overhead int64
		n, want         int
	}{
		{10_000, 0, 100, 10},
		{10_999, 0, 100, 10}, // whole vectors only
		{10_000, 2_000, 100, 8},
		{10_000, 2_001, 100, 7}, // overhead is charged before dividing
		{3_000, 0, 100, 3},
		{2_999, 0, 100, 3},       // floor at MinSlots
		{10_000, 9_000, 100, 3},  // overhead eats all but one vector: floor
		{10_000, 50_000, 100, 3}, // overhead beyond the grant: floor, not negative
		{0, 0, 100, 3},
		{200_000, 0, 100, 100},      // cap at n
		{200_000, 99_000, 100, 100}, // still capped with overhead charged
		{200_000, 0, 2, 2},          // n below the floor: everything resident
	}
	for _, c := range cases {
		if got := SlotsForBytes(c.grant, c.overhead, vecBytes, c.n); got != c.want {
			t.Errorf("SlotsForBytes(%d, %d, %d, %d) = %d, want %d", c.grant, c.overhead, vecBytes, c.n, got, c.want)
		}
	}
}

func TestRandomisedOpsKeepInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		slots := MinSlots + rng.Intn(n)
		var strat Strategy
		switch rng.Intn(3) {
		case 0:
			strat = NewRandom(rand.New(rand.NewSource(seed ^ 1)))
		case 1:
			strat = NewLRU(n)
		default:
			strat = NewLFU(n)
		}
		m, err := NewManager(Config{
			NumVectors: n, VectorLen: 3, Slots: slots,
			Strategy:     strat,
			ReadSkipping: rng.Intn(2) == 0,
			Store:        NewMemStore(n, 3),
		})
		if err != nil {
			return false
		}
		shadow := make([][]float64, n) // reference copy of all content
		for i := range shadow {
			shadow[i] = make([]float64, 3)
		}
		written := make([]bool, n)
		for op := 0; op < 300; op++ {
			vi := rng.Intn(n)
			write := rng.Intn(2) == 0
			var pins []int
			for p := 0; p < rng.Intn(2); p++ {
				pins = append(pins, rng.Intn(n))
			}
			v, err := m.Vector(vi, write, pins...)
			if err != nil {
				return false
			}
			if written[vi] && !write {
				for j := range v {
					if v[j] != shadow[vi][j] {
						return false
					}
				}
			}
			if write {
				for j := range v {
					v[j] = float64(op*10 + j)
					shadow[vi][j] = v[j]
				}
				written[vi] = true
			}
			if m.CheckInvariants() != nil {
				return false
			}
		}
		st := m.Stats()
		return st.Hits+st.Misses == st.Requests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTopologicalStrategyPicksFarthest(t *testing.T) {
	// Caterpillar tree: distances along the spine are unambiguous.
	tr, err := tree.ParseNewick("(((((a:1,b:1):1,c:1):1,d:1):1,e:1):1,f:1,g:1);")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTopological(tr)
	// Vector indices 0..NumInner-1 map to nodes NumTips...
	// Request the vector of the innermost node (index 0 among inner) and
	// offer all others: the farthest must win.
	nInner := tr.NumInner()
	candidates := make([]int, 0, nInner-1)
	for vi := 1; vi < nInner; vi++ {
		candidates = append(candidates, vi)
	}
	pick := s.PickVictim(candidates, 0)
	chosen := candidates[pick]
	reqNode := tr.Nodes[tr.NumTips]
	dist := tree.NodeDistances(tr, reqNode)
	for _, c := range candidates {
		if dist[c+tr.NumTips] > dist[chosen+tr.NumTips] {
			t.Fatalf("strategy picked %d (d=%d) but %d is farther (d=%d)",
				chosen, dist[chosen+tr.NumTips], c, dist[c+tr.NumTips])
		}
	}
	if s.Name() != "Topological" {
		t.Error("name wrong")
	}
}

func TestLRUStrategyEvictsOldest(t *testing.T) {
	s := NewLRU(5)
	s.Touch(0)
	s.Touch(1)
	s.Touch(2)
	s.Touch(0) // refresh 0; oldest is now 1
	if v := s.PickVictim([]int{0, 1, 2}, 4); v != 1 {
		t.Errorf("LRU picked index %d, want 1 (item 1)", v)
	}
	s.Reset()
	s.Touch(2)
	if v := s.PickVictim([]int{0, 2}, 4); v != 0 {
		t.Errorf("after reset, untouched 0 is oldest; picked %d", v)
	}
}

func TestLFUStrategyEvictsLeastFrequent(t *testing.T) {
	s := NewLFU(5)
	for i := 0; i < 5; i++ {
		s.Touch(0)
	}
	s.Touch(1)
	s.Touch(2)
	s.Touch(2)
	if v := s.PickVictim([]int{0, 1, 2}, 4); v != 1 {
		t.Errorf("LFU picked index %d, want 1", v)
	}
	s.Reset()
	if s.freq[0] != 0 {
		t.Error("reset did not clear frequencies")
	}
}

func TestRandomStrategyIsSeedDeterministic(t *testing.T) {
	a := NewRandom(rand.New(rand.NewSource(9)))
	b := NewRandom(rand.New(rand.NewSource(9)))
	cand := []int{3, 5, 7, 9, 11}
	for i := 0; i < 50; i++ {
		if a.PickVictim(cand, 0) != b.PickVictim(cand, 0) {
			t.Fatal("same seed must give identical choices")
		}
	}
}

// TestStrategyByName pins the one factory every caller shares: names
// are case-insensitive with the CLI's short aliases, and the seed
// reaches Random unchanged so figure numbers keep their stream.
func TestStrategyByName(t *testing.T) {
	tr, err := tree.ParseNewick("((a:1,b:1):1,c:1,d:1);")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"random": "RAND", "RAND": "RAND", "lru": "LRU", "LFU": "LFU",
		"Topological": "Topological", "topo": "Topological",
	} {
		s, err := StrategyByName(name, 8, tr, 1)
		if err != nil || s.Name() != want {
			t.Errorf("StrategyByName(%q) = %v, %v; want %s", name, s, err, want)
		}
	}
	if _, err := StrategyByName("fifo", 8, nil, 1); err == nil {
		t.Error("unknown strategy must error")
	}
	byName, _ := StrategyByName("rand", 8, nil, 9)
	direct := NewRandom(rand.New(rand.NewSource(9)))
	cand := []int{3, 5, 7, 9, 11}
	for i := 0; i < 50; i++ {
		if byName.PickVictim(cand, 0) != direct.PickVictim(cand, 0) {
			t.Fatal("StrategyByName must seed Random with exactly the seed it is given")
		}
	}
}
