package ooc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"oocphylo/internal/obs"
)

// fill writes a distinct pattern into every vector so later readbacks
// can verify that resizes never lose or corrupt data.
func fillVectors(t *testing.T, m *Manager, n, vl int) {
	t.Helper()
	for vi := 0; vi < n; vi++ {
		v, err := m.Vector(vi, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = float64(vi*1000 + j)
		}
	}
}

func checkVectors(t *testing.T, m *Manager, n, vl int) {
	t.Helper()
	for vi := 0; vi < n; vi++ {
		v, err := m.Vector(vi, false)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			if v[j] != float64(vi*1000+j) {
				t.Fatalf("vector %d[%d] = %g after resize, want %d", vi, j, v[j], vi*1000+j)
			}
		}
	}
}

func TestResizeShrinkGrowRoundTrip(t *testing.T) {
	n, vl := 16, 5
	m := testManager(t, n, vl, 8, NewLRU(n), false)
	defer m.Close()
	fillVectors(t, m, n, vl)
	if err := m.Resize(3); err != nil {
		t.Fatalf("shrink to 3: %v", err)
	}
	if got := m.Slots(); got != 3 {
		t.Fatalf("Slots() = %d after shrink, want 3", got)
	}
	checkVectors(t, m, n, vl)
	if err := m.Resize(12); err != nil {
		t.Fatalf("grow to 12: %v", err)
	}
	if got := m.Slots(); got != 12 {
		t.Fatalf("Slots() = %d after grow, want 12", got)
	}
	checkVectors(t, m, n, vl)
	rs := m.ResizeStats()
	if rs.Shrinks != 1 || rs.Grows != 1 {
		t.Errorf("ResizeStats = %+v, want 1 shrink and 1 grow", rs)
	}
	if rs.Evictions == 0 {
		t.Error("shrink from 8 to 3 evicted nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeBounds(t *testing.T) {
	n := 10
	m := testManager(t, n, 4, 5, NewLRU(n), false)
	defer m.Close()
	var sbe *SlotBoundsError
	if err := m.Resize(2); !errors.As(err, &sbe) {
		t.Fatalf("Resize(2) = %v, want *SlotBoundsError", err)
	}
	// Requests above n are capped, not rejected.
	if err := m.Resize(n + 50); err != nil {
		t.Fatalf("Resize above n: %v", err)
	}
	if got := m.Slots(); got != n {
		t.Fatalf("Slots() = %d, want capped at %d", got, n)
	}
	// Same-size resize is a no-op.
	if err := m.Resize(n); err != nil {
		t.Fatal(err)
	}
	if rs := m.ResizeStats(); rs.Grows != 1 {
		t.Errorf("no-op resize counted: %+v", rs)
	}
}

// TestResizeShrinkRespectsPins: Resize itself takes no pins (it runs
// between operations), but a pool shrunk to the floor must still serve
// a newview's working set — two pinned children plus the output — even
// when the children are the strategy's first victims.
func TestResizeShrinkRespectsPins(t *testing.T) {
	n := 12
	m := testManager(t, n, 4, 6, NewLRU(n), false)
	defer m.Close()
	fillVectors(t, m, n, 4)
	if err := m.Resize(MinSlots); err != nil {
		t.Fatal(err)
	}
	// 0 becomes the LRU resident, then 1, then 2.
	for _, vi := range []int{0, 1, 2} {
		if _, err := m.Vector(vi, false); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.Vector(5, true, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Resident(0) || !m.Resident(1) {
		t.Error("pinned vectors evicted from the shrunk pool")
	}
	for j := range out {
		out[j] = float64(5*1000 + j)
	}
	checkVectors(t, m, n, 4)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeRejectedAfterClose(t *testing.T) {
	m := testManager(t, 8, 4, 4, NewLRU(8), false)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize(6); !errors.Is(err, ErrManagerClosing) {
		t.Fatalf("Resize after Close = %v, want ErrManagerClosing", err)
	}
}

func TestResizeWithAsyncPipeline(t *testing.T) {
	// Shrinking while async stage-ins are in flight must drain them and
	// leave a consistent pool; the interleaved Prefetch/Vector/Resize
	// sequence runs under -race in CI.
	n, vl := 24, 8
	m, err := NewManager(Config{
		NumVectors:   n,
		VectorLen:    vl,
		Slots:        10,
		Strategy:     NewLRU(n),
		ReadSkipping: true,
		Store:        NewMemStore(n, vl),
		Async:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fillVectors(t, m, n, vl)
	for cycle := 0; cycle < 6; cycle++ {
		// Queue a burst of async stage-ins, then resize immediately so
		// some are still in flight.
		for vi := 0; vi < n; vi += 3 {
			if err := m.Prefetch(vi); err != nil {
				t.Fatal(err)
			}
		}
		target := 4 + (cycle%3)*6 // 4, 10, 16, 4, ...
		if err := m.Resize(target); err != nil {
			t.Fatalf("cycle %d Resize(%d): %v", cycle, target, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		checkVectors(t, m, n, vl)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	checkVectors(t, m, n, vl)
}

func TestResizeBitIdenticalAccessPattern(t *testing.T) {
	// The same access sequence with and without a mid-sequence resize
	// must return identical data — resizing changes where vectors live,
	// never what they hold.
	n, vl := 20, 6
	seq := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		seq = append(seq, (i*7)%n)
	}
	run := func(resizeAt int) []float64 {
		m := testManager(t, n, vl, 8, NewLRU(n), false)
		defer m.Close()
		fillVectors(t, m, n, vl)
		var got []float64
		for i, vi := range seq {
			if i == resizeAt {
				if err := m.Resize(4); err != nil {
					t.Fatal(err)
				}
			}
			v, err := m.Vector(vi, false)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v[vi%vl])
		}
		return got
	}
	base := run(-1)
	resized := run(30)
	for i := range base {
		if base[i] != resized[i] {
			t.Fatalf("access %d: %g with resize vs %g without", i, resized[i], base[i])
		}
	}
}

func TestSlotBoundsErrorMessages(t *testing.T) {
	for _, tc := range []struct {
		err  SlotBoundsError
		want string
	}{
		{SlotBoundsError{Slots: 2, NumVectors: 10}, "m >= 3"},
	} {
		if msg := tc.err.Error(); !strings.Contains(msg, tc.want) {
			t.Errorf("%+v message %q lacks %q", tc.err, msg, tc.want)
		}
	}
}

func TestValidateSlotsSharedByConstruction(t *testing.T) {
	// NewManager and Resize reject through the same validator.
	_, err := NewManager(Config{
		NumVectors: 10, VectorLen: 4, Slots: 2,
		Strategy: NewLRU(10), Store: NewMemStore(10, 4),
	})
	var sbe *SlotBoundsError
	if !errors.As(err, &sbe) {
		t.Fatalf("NewManager with 2 slots = %v, want *SlotBoundsError", err)
	}
	if sbe.Slots != 2 || sbe.NumVectors != 10 {
		t.Errorf("bounds error fields: %+v", sbe)
	}
}

func TestResizeObsGauge(t *testing.T) {
	// The slots gauge tracks resizes when instrumented.
	m := testManager(t, 12, 4, 6, NewLRU(12), false)
	defer m.Close()
	reg := obs.NewRegistry()
	m.Instrument(reg)
	if err := m.Resize(4); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["ooc.slots"].Value; got != 4 {
		t.Errorf("ooc.slots gauge = %d, want 4", got)
	}
	if got := snap.Counters["ooc.resize_shrinks"]; got != 1 {
		t.Errorf("ooc.resize_shrinks = %d, want 1", got)
	}
}

func ExampleManager_Resize() {
	store := NewMemStore(8, 4)
	m, _ := NewManager(Config{
		NumVectors: 8, VectorLen: 4, Slots: 6,
		Strategy: NewLRU(8), Store: store,
	})
	defer m.Close()
	fmt.Println("slots:", m.Slots())
	_ = m.Resize(3)
	fmt.Println("after shrink:", m.Slots())
	_ = m.Resize(6)
	fmt.Println("after grow:", m.Slots())
	// Output:
	// slots: 6
	// after shrink: 3
	// after grow: 6
}
