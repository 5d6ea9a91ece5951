package ooc

// Runtime slot-pool resizing — the paper's memory knob f made a live
// parameter. The paper fixes m = f·n at startup; external-memory
// systems that share machines (STXXL and kin) instead treat the RAM
// budget as something the environment can change under a running
// process. Resize lets the manager grow or shrink its slot pool
// between operations:
//
//   - Shrink evicts via the active replacement strategy — the same
//     code path as a demand miss, so the write-back rule, read-skipping
//     ledgers and strategy state all behave exactly as if the evicted
//     vectors had lost a normal replacement decision. Pinned vectors
//     are never chosen; in-flight async stage-ins are drained first so
//     no worker is left filling a buffer the pool no longer owns.
//   - Grow appends empty slots whose buffers are allocated lazily on
//     first use, so raising the ceiling is free until the space is
//     actually touched.
//
// Because eviction order and slot mapping stay on the single API
// goroutine, results remain bit-identical to a fixed-m run: resizing
// changes WHERE vectors live, never WHAT is computed.

import (
	"errors"
	"fmt"
)

// ErrManagerClosing is returned by Resize once Close has been entered:
// the pipeline is (being) torn down and the pool geometry is frozen.
var ErrManagerClosing = errors.New("ooc: Resize rejected: Close in flight")

// SlotBoundsError is the typed rejection for a slot count that
// violates the manager's invariants — m >= MinSlots whenever the
// vector count allows (§3.2's floor), and m strictly greater than the
// number of pinned vectors so at least one slot can still turn over.
// Both Manager construction and Resize report it.
type SlotBoundsError struct {
	// Slots is the offending requested slot count.
	Slots int
	// NumVectors is n, the managed vector count.
	NumVectors int
	// Pinned is the number of vectors that must stay resident across
	// the request (always 0 at construction).
	Pinned int
}

// Error implements error.
func (e *SlotBoundsError) Error() string {
	if e.Pinned > 0 && e.Slots <= e.Pinned {
		return fmt.Sprintf("ooc: %d slots cannot hold %d pinned vectors plus a free slot (need m > pinned)",
			e.Slots, e.Pinned)
	}
	return fmt.Sprintf("ooc: %d slots for %d vectors; need at least %d (m >= 3)",
		e.Slots, e.NumVectors, MinSlots)
}

// validateSlots is the single home of the slot-count invariants,
// shared by NewManager (pinned = 0) and Resize. slots is assumed to be
// already capped at numVectors.
func validateSlots(slots, numVectors, pinned int) error {
	if slots < MinSlots && slots < numVectors {
		return &SlotBoundsError{Slots: slots, NumVectors: numVectors, Pinned: pinned}
	}
	if pinned > 0 && slots <= pinned {
		return &SlotBoundsError{Slots: slots, NumVectors: numVectors, Pinned: pinned}
	}
	return nil
}

// ResizeStats counts Resize activity.
type ResizeStats struct {
	// Grows and Shrinks count successful Resize calls per direction.
	Grows, Shrinks int64
	// Evictions counts vectors evicted specifically to shrink the pool
	// (demand-miss evictions are ledgered in Stats, not here).
	Evictions int64
}

// ResizeStats returns the resize counters. Safe from any goroutine.
func (m *Manager) ResizeStats() ResizeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rstats
}

// Resize grows or shrinks the live slot pool to slots entries. Values
// above NumVectors are capped (as at construction); values below
// MinSlots, or not exceeding the pinned count, are rejected with a
// *SlotBoundsError. pinned lists vector indices that must survive a
// shrink resident (the engine passes its current working set).
//
// Shrinking first drains every in-flight asynchronous stage-in, then
// repeatedly asks the replacement strategy for victims until the
// surviving residents fit, then compacts them into the prefix of the
// slot array and releases the tail buffers. Growing appends empty
// slots; their buffers are allocated on first use. A no-op when slots
// equals the current pool size. Must be called from the single API
// goroutine (between operations, never concurrently with them);
// returns ErrManagerClosing once Close has been entered.
func (m *Manager) Resize(slots int, pinned ...int) error {
	if m.closing.Load() {
		return ErrManagerClosing
	}
	if slots > m.cfg.NumVectors {
		slots = m.cfg.NumVectors
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := validateSlots(slots, m.cfg.NumVectors, len(pinned)); err != nil {
		return err
	}
	cur := len(m.slots)
	switch {
	case slots == cur:
		return nil
	case slots > cur:
		m.grow(slots)
		m.rstats.Grows++
	default:
		if err := m.shrink(slots, pinned); err != nil {
			return err
		}
		m.rstats.Shrinks++
	}
	if m.mx.on {
		m.mx.slots.Set(int64(len(m.slots)))
	}
	return nil
}

// grow appends empty slots up to target. Buffers stay nil until
// freeSlot hands the slot out for the first time.
func (m *Manager) grow(target int) {
	for len(m.slots) < target {
		m.slots = append(m.slots, nil)
		m.slotItem = append(m.slotItem, -1)
		m.dirty = append(m.dirty, false)
		m.prefetched = append(m.prefetched, false)
		if m.pipe != nil {
			m.inflight = append(m.inflight, nil)
		}
	}
}

// shrink reduces the pool to target slots: drain in-flight fetches,
// evict until the residents fit, compact them into the prefix, drop
// the tail. Callers hold m.mu.
func (m *Manager) shrink(target int, pinned []int) error {
	// Drain in-flight stage-ins first: compaction moves buffers between
	// slot indices, and a background worker must never be left writing
	// into a buffer whose slot is about to be dropped or remapped. A
	// failed stage-in leaves garbage, so the mapping is dropped rather
	// than kept.
	if m.pipe != nil {
		for s := range m.inflight {
			_ = m.joinOrDrop(s, false)
		}
	}
	// Evict until the surviving residents fit in target slots.
	for {
		resident := 0
		for _, it := range m.slotItem {
			if it >= 0 {
				resident++
			}
		}
		if resident <= target {
			break
		}
		victim, slot, err := m.pickVictim(-1, pinned)
		if err != nil {
			return err
		}
		if err := m.evict(victim, slot); err != nil {
			return err
		}
		m.rstats.Evictions++
	}
	// Compact residents from the doomed tail into free prefix slots.
	// The buffer moves with the resident (its contents, dirty bit and
	// any still-pending write-back all travel by pointer).
	for s := target; s < len(m.slots); s++ {
		it := m.slotItem[s]
		if it < 0 {
			continue
		}
		dst := -1
		for u := 0; u < target; u++ {
			if m.slotItem[u] < 0 {
				dst = u
				break
			}
		}
		// dst always exists: at most target residents survive the
		// eviction loop, and one of them is sitting at s >= target.
		m.slots[dst] = m.slots[s]
		m.slotItem[dst] = it
		m.itemSlot[it] = dst
		m.dirty[dst] = m.dirty[s]
		m.prefetched[dst] = m.prefetched[s]
		m.slotItem[s] = -1
		m.dirty[s] = false
		m.prefetched[s] = false
	}
	// Copy into fresh slices so the dropped tail buffers lose their
	// last reference and can actually be reclaimed — the whole point of
	// shrinking under memory pressure.
	ns := make([][]float64, target)
	copy(ns, m.slots[:target])
	m.slots = ns
	m.slotItem = append([]int(nil), m.slotItem[:target]...)
	m.dirty = append([]bool(nil), m.dirty[:target]...)
	m.prefetched = append([]bool(nil), m.prefetched[:target]...)
	if m.pipe != nil {
		// All inflight entries are nil after the drain above.
		m.inflight = make([]*fetchReq, target)
	}
	return nil
}
