package ooc

// Memory watchdog — a live, adaptive version of the paper's f knob.
// The paper picks the RAM fraction f once, before the run; on a shared
// machine the honest budget moves while a multi-day inference is in
// flight. The watchdog samples the Go heap between newview calls (the
// engine's safe points, where no vector address is held across the
// call) and steps the manager's slot count down when the process
// overshoots its soft budget — trading I/O for survival instead of
// OOMing — and back up when pressure clears.
//
// The watchdog is deliberately passive: it only acts when its Check
// method is called from the compute goroutine, so every Resize happens
// between operations and the bit-identical guarantee of Resize holds.

import (
	"errors"
	"runtime"
	"sync"
)

const (
	// shrinkFraction is the slot fraction dropped per over-budget
	// sample; growFraction the fraction regained per under-budget sample
	// (growing back cautiously avoids shrink/grow thrash).
	shrinkFraction, growFraction = 0.25, 0.125
	// growBelow is the hysteresis gate: the pool regrows only while
	// HeapAlloc < growBelow*SoftBudget.
	growBelow = 0.5
)

// WatchdogConfig configures a memory Watchdog.
type WatchdogConfig struct {
	// SoftBudget is the heap budget in bytes the watchdog steers
	// HeapAlloc towards; required (> 0).
	SoftBudget int64
	// CheckEvery is the number of Check calls per ReadMemStats sample
	// (default 64): reading mem stats stops the world briefly, so it
	// must not run on every newview.
	CheckEvery int
	// ReadMem is the sampling function, replaceable in tests to script
	// heap trajectories (default runtime.ReadMemStats).
	ReadMem func(*runtime.MemStats)
}

// WatchdogStats describes the watchdog's activity so far.
type WatchdogStats struct {
	// Samples counts ReadMemStats samples taken.
	Samples int64
	// Shrinks and Grows count the Resize calls issued per direction.
	Shrinks, Grows int64
	// Failures counts Resize calls that returned an error (e.g. a pool
	// frozen by Close, or a pinned set the target cannot hold). The
	// sample is still recorded, so a failed step is visible rather than
	// silently freezing Samples/LastHeap/Slots.
	Failures int64
	// LastHeap is HeapAlloc at the latest sample.
	LastHeap uint64
	// Slots is the pool size after the latest sample.
	Slots int
}

// Watchdog steps a Manager's slot pool down/up to keep the process
// near a soft heap budget. Check must be called from the manager's
// single API goroutine (the engine's safe-point hook does); Stats may
// be read from any goroutine.
type Watchdog struct {
	mgr   *Manager
	cfg   WatchdogConfig
	calls int
	// maxSlots is the regrow ceiling; the shrink floor is MinSlots.
	maxSlots int

	mu    sync.Mutex
	stats WatchdogStats
}

// NewWatchdog validates cfg and binds a watchdog to mgr. The manager's
// current slot count becomes the regrow ceiling (the watchdog never
// grows beyond what the operator granted; see SetMaxSlots).
func NewWatchdog(mgr *Manager, cfg WatchdogConfig) (*Watchdog, error) {
	if mgr == nil {
		return nil, errors.New("ooc: watchdog needs a manager")
	}
	if cfg.SoftBudget <= 0 {
		return nil, errors.New("ooc: watchdog needs a positive soft budget")
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 64
	}
	if cfg.ReadMem == nil {
		cfg.ReadMem = runtime.ReadMemStats
	}
	return &Watchdog{mgr: mgr, cfg: cfg, maxSlots: max(mgr.Slots(), MinSlots)}, nil
}

// SetMaxSlots moves the regrow ceiling, for an operator grant that
// changed under a live watchdog. Like Check, it must be called from the
// manager's API goroutine.
func (w *Watchdog) SetMaxSlots(n int) {
	w.maxSlots = max(n, MinSlots)
}

// Check is the safe-point hook: every CheckEvery-th call samples the
// heap and, when the budget is overshot (or comfortably clear), steps
// the slot pool. pinned is forwarded to Resize so a shrink never
// evicts the caller's working set.
func (w *Watchdog) Check(pinned ...int) error {
	w.calls++
	if w.calls < w.cfg.CheckEvery {
		return nil
	}
	w.calls = 0
	var ms runtime.MemStats
	w.cfg.ReadMem(&ms)
	cur := w.mgr.Slots()
	// The store tier's bookkeeping (cache index, in-flight remote
	// buffers) lives on the same heap but is not the watchdog's to
	// reclaim — shrinking slots cannot free it. Charge it against the
	// budget so the slot pool absorbs the squeeze, flooring at a small
	// positive budget so a pathological overhead report cannot wedge
	// the comparison.
	budget := w.cfg.SoftBudget - w.mgr.MemOverheadBytes()
	if budget < 1 {
		budget = 1
	}
	target := cur
	switch {
	case int64(ms.HeapAlloc) > budget && cur > MinSlots:
		target = cur - step(cur, shrinkFraction)
		if target < MinSlots {
			target = MinSlots
		}
		// The pinned working set bounds how far one step may go.
		if target <= len(pinned) {
			target = len(pinned) + 1
		}
		if target >= cur {
			target = cur
		}
	case float64(ms.HeapAlloc) < growBelow*float64(budget) && cur < w.maxSlots:
		target = cur + step(cur, growFraction)
		if target > w.maxSlots {
			target = w.maxSlots
		}
	}
	// Record the sample before propagating any Resize error: a failed
	// step must advance Samples/LastHeap and report the pool size the
	// manager actually has, not the target it never reached.
	var rerr error
	applied := cur
	if target != cur {
		if rerr = w.mgr.Resize(target, pinned...); rerr == nil {
			applied = target
		}
	}
	w.mu.Lock()
	w.stats.Samples++
	w.stats.LastHeap = ms.HeapAlloc
	w.stats.Slots = applied
	switch {
	case rerr != nil:
		w.stats.Failures++
	case target < cur:
		w.stats.Shrinks++
	case target > cur:
		w.stats.Grows++
	}
	w.mu.Unlock()
	return rerr
}

// step returns a whole-slot step of at least 1 for the given fraction.
func step(cur int, frac float64) int {
	s := int(float64(cur) * frac)
	if s < 1 {
		s = 1
	}
	return s
}

// Stats returns a snapshot of the watchdog's activity. Safe from any
// goroutine.
func (w *Watchdog) Stats() WatchdogStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
