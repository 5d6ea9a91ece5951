package ooc

// Deterministic seeded fault injection. FaultStore wraps any Store and
// injects the failure modes a long out-of-core run must survive:
// transient read EIO (the read fails, the medium is fine), torn writes
// (the write reports success but only a prefix of the payload reaches
// the medium), and bit flips on the read path (the medium is fine but
// the transfer is not). Tests and the soak harness layer it under a
// Manager, which checks every vector it reads against the checksum it
// recorded, so silent corruption is detected on read-back, and every
// fault ends in the one recovery there is, the engine's recompute of
// the vector it could not read:
//
//	Manager (checks; unreadable → recompute) → FaultStore (injects) → FileStore/MemStore
//
// There is no injected write EIO: a write error is fatal to a run, and
// no production store returns a transient one (the remote tier keeps a
// refused PUT's bytes in its cache file instead).
//
// Every die is a pure function of the seed, the vector, its call
// ordinal (reads and writes counted together) and the fault kind, so
// below the (global) caps a vector's faults follow its own calls, never
// how the async pipeline's workers interleave distinct vectors.

import (
	"fmt"
	"math"
	"sync"

	"oocphylo/internal/iosim"
)

// FaultConfig parameterises a FaultStore. Probabilities are per
// operation; Max* caps bound how often each fault fires (0 = never —
// a cap must be set for a category to be active, which keeps soak runs
// terminating by construction).
type FaultConfig struct {
	// Seed fixes the fault sequence.
	Seed int64
	// PReadErr injects transient EIO (wrapped in ErrTransientIO) on
	// reads.
	PReadErr float64
	// PTornWrite makes a write land partially while reporting success.
	PTornWrite float64
	// PBitFlip flips one bit of a read's payload after the transfer.
	PBitFlip float64
	// Caps on the number of injections per category.
	MaxReadErrs, MaxTornWrites, MaxBitFlips int64
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	ReadErrs, TornWrites, BitFlips int64
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.ReadErrs + s.TornWrites + s.BitFlips
}

// FaultStore injects faults in front of an inner Store. Safe for the
// concurrent distinct-vector calls the async pipeline issues (the call
// ordinals and the caps' counters share one lock).
type FaultStore struct {
	inner Store
	cfg   FaultConfig

	mu    sync.Mutex
	calls map[int]uint64 // per vector, the calls made so far
	stats FaultStats
}

// NewFaultStore wraps inner with the given fault plan.
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	return &FaultStore{inner: inner, cfg: cfg, calls: make(map[int]uint64)}
}

// The dice a call can roll, one per decision.
const (
	dieReadErr uint64 = iota + 1
	dieFlip
	dieFlipAt
	dieTorn
	dieTornAt
)

// die is the draw of die k on vector vi's call number ord.
func (s *FaultStore) die(vi int, ord, k uint64) uint64 {
	return iosim.Die(s.cfg.Seed, uint64(vi), ord, k)
}

// Stats returns a snapshot of the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// roll decides one fault category under s.mu from die k of vector vi's
// call ord: fire with probability p unless the cap is exhausted.
func (s *FaultStore) roll(vi int, ord, k uint64, p float64, cap int64, counter *int64) bool {
	if p <= 0 || cap <= 0 || *counter >= cap {
		return false
	}
	if float64(s.die(vi, ord, k)>>11)/(1<<53) >= p {
		return false
	}
	*counter++
	return true
}

// ReadVector implements Store: maybe a transient EIO before any
// transfer, maybe one flipped bit after a successful one.
func (s *FaultStore) ReadVector(vi int, dst []float64) error {
	s.mu.Lock()
	ord := s.calls[vi]
	s.calls[vi]++
	if s.roll(vi, ord, dieReadErr, s.cfg.PReadErr, s.cfg.MaxReadErrs, &s.stats.ReadErrs) {
		s.mu.Unlock()
		return fmt.Errorf("ooc: injected EIO reading vector %d: %w", vi, ErrTransientIO)
	}
	flip := -1
	var bit uint
	if len(dst) > 0 && s.roll(vi, ord, dieFlip, s.cfg.PBitFlip, s.cfg.MaxBitFlips, &s.stats.BitFlips) {
		at := s.die(vi, ord, dieFlipAt)
		flip, bit = int(at%uint64(len(dst))), uint(at>>58)
	}
	s.mu.Unlock()
	if err := s.inner.ReadVector(vi, dst); err != nil {
		return err
	}
	if flip >= 0 {
		dst[flip] = math.Float64frombits(math.Float64bits(dst[flip]) ^ (1 << bit))
	}
	return nil
}

// WriteVector implements Store: maybe a torn write — the prefix lands,
// the tail never reaches the medium, and the call still reports success
// (exactly the silent failure the manager's checksum exists to catch).
func (s *FaultStore) WriteVector(vi int, src []float64) error {
	s.mu.Lock()
	ord := s.calls[vi]
	s.calls[vi]++
	torn := -1
	if len(src) > 1 && s.roll(vi, ord, dieTorn, s.cfg.PTornWrite, s.cfg.MaxTornWrites, &s.stats.TornWrites) {
		// Keep at least one element, lose at least one.
		torn = 1 + int(s.die(vi, ord, dieTornAt)%uint64(len(src)-1))
	}
	s.mu.Unlock()
	if torn < 0 {
		return s.inner.WriteVector(vi, src)
	}
	tmp := make([]float64, len(src))
	copy(tmp, src[:torn])
	return s.inner.WriteVector(vi, tmp)
}

// Close implements Store.
func (s *FaultStore) Close() error { return s.inner.Close() }

// Unwrap implements Unwrapper.
func (s *FaultStore) Unwrap() Store { return s.inner }
