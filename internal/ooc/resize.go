package ooc

// Runtime pool resizing — the paper's memory knob f made a live
// parameter. The paper fixes m = f·n at startup; external-memory
// systems that share machines (STXXL and kin) instead treat the RAM
// budget as something the environment can change under a running
// process. Resize lets the manager grow or shrink its budget between
// operations:
//
//   - Shrink evicts via the active replacement strategy — the same
//     code path as a demand miss, so the write-back rule, read-skipping
//     ledgers and strategy state all behave exactly as if the evicted
//     vectors had lost a normal replacement decision — until the
//     residents fit, then drops free buffers until the free list fits
//     too.
//   - Grow only raises the budget: buffers are allocated as vectors
//     move in, so raising the ceiling is free until the space is used.
//
// Because eviction order and placement stay on the single API
// goroutine, results remain bit-identical to a fixed-m run: resizing
// changes WHERE vectors live, never WHAT is computed.

import (
	"errors"
	"fmt"
)

// ErrManagerClosing is returned by Vector, Flush and Resize once Close
// has been entered: the pipeline is (being) torn down.
var ErrManagerClosing = errors.New("ooc: manager closed")

// SlotBoundsError is the typed rejection for a slot count below the
// manager's floor: m >= MinSlots whenever the vector count allows
// (§3.2's floor). Both Manager construction and Resize report it.
type SlotBoundsError struct {
	// Slots is the offending requested slot count.
	Slots int
	// NumVectors is n, the managed vector count.
	NumVectors int
}

// Error implements error.
func (e *SlotBoundsError) Error() string {
	return fmt.Sprintf("ooc: %d slots for %d vectors; need at least %d (m >= 3)",
		e.Slots, e.NumVectors, MinSlots)
}

// validateSlots is the single home of the slot-count invariant, shared
// by NewManager and Resize. slots is assumed to be already capped at
// numVectors.
func validateSlots(slots, numVectors int) error {
	if slots < MinSlots && slots < numVectors {
		return &SlotBoundsError{Slots: slots, NumVectors: numVectors}
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
	return ResizeStats{Grows: m.c.grows.Value(), Shrinks: m.c.shrinks.Value(), Evictions: m.c.resizeEvictions.Value()}
}

// Resize grows or shrinks the live pool to slots × VectorLen float64s.
// Values above NumVectors are capped (as at construction); values below
// MinSlots are rejected with a *SlotBoundsError.
//
// Shrinking settles the wide vectors, evicts the strategy's victims
// until the residents fit, then trims the free list. Growing raises the
// budget. Must be called from the single API goroutine (between
// operations, never concurrently with them); returns ErrManagerClosing
// once Close has been entered.
func (m *Manager) Resize(slots int) error {
	if m.closing.Load() {
		return ErrManagerClosing
	}
	if slots > m.cfg.NumVectors {
		slots = m.cfg.NumVectors
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.noteHeld()
	if err := validateSlots(slots, m.cfg.NumVectors); err != nil {
		return err
	}
	switch {
	case slots == m.nslots:
		return nil
	case slots > m.nslots:
		m.c.grows.Inc()
	default:
		m.settleWide(-1, false, nil)
		for m.held > slots*m.cfg.VectorLen {
			victim, slot, err := m.pickVictim(-1, nil)
			if err == nil {
				err = m.evict(victim, slot)
			}
			if err != nil {
				return err
			}
			m.c.resizeEvictions.Inc()
		}
		m.c.shrinks.Inc()
	}
	m.nslots, m.budget = slots, slots*m.cfg.VectorLen
	m.trim(0)
	m.mx.slots.Set(int64(slots))
	return nil
}
