package ooc

import (
	"errors"
	"runtime"
	"testing"
)

// scriptedMem returns a ReadMem substitute that plays back a fixed
// HeapAlloc trajectory, repeating the last value once exhausted.
func scriptedMem(heaps ...uint64) func(*runtime.MemStats) {
	i := 0
	return func(ms *runtime.MemStats) {
		if i >= len(heaps) {
			ms.HeapAlloc = heaps[len(heaps)-1]
			return
		}
		ms.HeapAlloc = heaps[i]
		i++
	}
}

func TestWatchdogShrinksAndRegrows(t *testing.T) {
	n := 32
	m := testManager(t, n, 4, 16, NewLRU(n), false)
	defer m.Close()
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1000,
		CheckEvery: 1,
		// Over budget twice, then far enough under the hysteresis gate
		// (0.5 * budget) to regrow, then idle in the dead zone.
		ReadMem: scriptedMem(2000, 1500, 100, 100, 700, 700),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := wd.Check(); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	ws := wd.Stats()
	if ws.Samples != 6 {
		t.Errorf("Samples = %d, want 6", ws.Samples)
	}
	if ws.Shrinks != 2 {
		t.Errorf("Shrinks = %d, want 2", ws.Shrinks)
	}
	if ws.Grows != 2 {
		t.Errorf("Grows = %d, want 2", ws.Grows)
	}
	// 16 -(25%)-> 12 -(25%)-> 9 -(12.5%)-> 10 -(12.5%)-> 11, then the
	// 700-byte samples sit between GrowBelow*budget and budget: no move.
	if got := m.Slots(); got != 11 {
		t.Errorf("Slots = %d after shrink/grow script, want 11", got)
	}
	if ws.Slots != 11 || ws.LastHeap != 700 {
		t.Errorf("stats snapshot %+v", ws)
	}
}

func TestWatchdogFloorsAndPins(t *testing.T) {
	n := 32
	m := testManager(t, n, 4, 4, NewLRU(n), false)
	defer m.Close()
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1000,
		CheckEvery: 1,
		ReadMem:    scriptedMem(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated pressure can never push below the package floor.
	for i := 0; i < 5; i++ {
		if err := wd.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Slots(); got != MinSlots {
		t.Errorf("Slots = %d, want floor %d", got, MinSlots)
	}
	// With 4 pins the one-step target of len(pinned)+1 = 5 exceeds the
	// current 3 slots; the watchdog must not "shrink" upwards.
	if err := wd.Check(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Slots(); got != MinSlots {
		t.Errorf("Slots = %d after pinned check, want %d", got, MinSlots)
	}
}

func TestWatchdogCheckEverySampling(t *testing.T) {
	m := testManager(t, 16, 4, 8, NewLRU(16), false)
	defer m.Close()
	samples := 0
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1 << 30,
		CheckEvery: 10,
		ReadMem: func(ms *runtime.MemStats) {
			samples++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := wd.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if samples != 3 {
		t.Errorf("35 checks at CheckEvery=10 took %d samples, want 3", samples)
	}
}

func TestWatchdogValidation(t *testing.T) {
	m := testManager(t, 16, 4, 8, NewLRU(16), false)
	defer m.Close()
	if _, err := NewWatchdog(nil, WatchdogConfig{SoftBudget: 1}); err == nil {
		t.Error("nil manager accepted")
	}
	if _, err := NewWatchdog(m, WatchdogConfig{}); err == nil {
		t.Error("zero budget accepted")
	}
	// MaxSlots defaults to the pool size at bind time: the watchdog
	// never grants more than the operator originally did.
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1000,
		CheckEvery: 1,
		ReadMem:    scriptedMem(10), // far under budget forever
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := wd.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Slots(); got != 8 {
		t.Errorf("Slots = %d, watchdog grew beyond its MaxSlots default of 8", got)
	}
}

// TestWatchdogRecordsFailedResize: a Resize failure must still land in
// the stats — Samples/LastHeap/Slots advance and the failure is counted
// — before the error propagates to the safe-point caller. (The pool is
// frozen by Close here, the cheapest deterministic way to make every
// Resize fail.)
func TestWatchdogRecordsFailedResize(t *testing.T) {
	n := 32
	m := testManager(t, n, 4, 16, NewLRU(n), false)
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1000,
		CheckEvery: 1,
		ReadMem:    scriptedMem(2000), // always over budget: every sample wants a shrink
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wd.Check(); !errors.Is(err, ErrManagerClosing) {
		t.Fatalf("Check on a closing manager = %v, want ErrManagerClosing", err)
	}
	ws := wd.Stats()
	if ws.Samples != 1 || ws.Failures != 1 {
		t.Errorf("Samples = %d, Failures = %d after failed resize, want 1, 1", ws.Samples, ws.Failures)
	}
	if ws.LastHeap != 2000 {
		t.Errorf("LastHeap = %d, want 2000 (sample must be recorded on failure)", ws.LastHeap)
	}
	if ws.Slots != 16 {
		t.Errorf("Slots = %d, want the actual pool size 16, not the unreached target", ws.Slots)
	}
	if ws.Shrinks != 0 || ws.Grows != 0 {
		t.Errorf("a failed step must not count as a shrink or grow: %+v", ws)
	}
	// A second failed check keeps advancing the ledger.
	if err := wd.Check(); !errors.Is(err, ErrManagerClosing) {
		t.Fatalf("second Check = %v, want ErrManagerClosing", err)
	}
	if ws = wd.Stats(); ws.Samples != 2 || ws.Failures != 2 {
		t.Errorf("Samples = %d, Failures = %d after second failure, want 2, 2", ws.Samples, ws.Failures)
	}
}

// TestWatchdogSetMaxSlots: a changed grant moves the regrow ceiling —
// the pool grows to the new ceiling and no further, and a ceiling below
// the floor is held at MinSlots.
func TestWatchdogSetMaxSlots(t *testing.T) {
	m := testManager(t, 16, 4, 8, NewLRU(16), false)
	defer m.Close()
	wd, err := NewWatchdog(m, WatchdogConfig{
		SoftBudget: 1000,
		CheckEvery: 1,
		ReadMem:    scriptedMem(10), // far under budget forever
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ ceiling, start, want int }{
		{11, 8, 11},
		{1, MinSlots, MinSlots},
	} {
		if err := m.Resize(c.start); err != nil {
			t.Fatal(err)
		}
		wd.SetMaxSlots(c.ceiling)
		for i := 0; i < 10; i++ {
			if err := wd.Check(); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.Slots(); got != c.want {
			t.Errorf("ceiling %d from %d slots: pool at %d, want %d", c.ceiling, c.start, got, c.want)
		}
	}
}
