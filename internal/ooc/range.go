package ooc

// Store capabilities beyond ReadVector/WriteVector, each queried down
// a wrapper chain by one helper. The ranged one exists for its context:
// TieredStore moves each miss and each write-back as a one-vector range
// so the per-attempt deadline reaches the transport. Of this package's
// stores only ObjectStore implements RangeStore (one ranged GET or
// PUT); every other store is served by ReadRangeOf/WriteRangeOf's
// per-vector fallback, which checks ctx before each vector.

import (
	"context"
	"fmt"
	"time"
)

// FetchCoster reports whether a demand read of vector vi is "remote" —
// not servable from a local tier. No store in this module implements it
// any more: it and StoreFetchCost stay only because the benchmark
// harness's traced provider and store forward them.
type FetchCoster interface {
	FetchCost(vi int) (time.Duration, bool)
}

// MemOverheader reports heap bytes a store holds beyond the manager's
// slot pool (cache indexes, in-flight transfer buffers). Sizing a pool
// from a byte budget (-L, a daemon session's grant) subtracts it first,
// so the budget stays honest when a cache tier sits under the slots.
type MemOverheader interface {
	MemOverheadBytes() int64
}

// Unwrapper is implemented by wrapper stores that add behaviour to one
// inner Store (injection, simulation, checksums). The capability helpers
// below walk the Unwrap chain, so a wrapper forwards nothing: it
// implements a capability only when it contributes to it, and then
// queries its inner store through the same helper.
type Unwrapper interface {
	Unwrap() Store
}

// storeAs returns the first store down s's Unwrap chain implementing T.
func storeAs[T any](s Store) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	var zero T
	return zero, false
}

// StoreFetchCost queries the first FetchCoster down s's Unwrap chain,
// reporting (0, false) — local — when there is none (see FetchCoster).
func StoreFetchCost(s Store, vi int) (time.Duration, bool) {
	if fc, ok := storeAs[FetchCoster](s); ok {
		return fc.FetchCost(vi)
	}
	return 0, false
}

// StoreMemOverhead queries the memory overhead of the first
// MemOverheader down s's Unwrap chain (0 when untracked).
func StoreMemOverhead(s Store) int64 {
	if mo, ok := storeAs[MemOverheader](s); ok {
		return mo.MemOverheadBytes()
	}
	return 0
}

// Degrader is implemented by stores that can report their remote
// backend as temporarily unavailable (circuit breaker open);
// TieredStore is the one. Nothing in this module queries it through the
// interface — the service asks TieredStore directly for /readyz —
// so it and StoreDegraded stay only because the benchmark harness's
// traced provider and store forward them.
type Degrader interface {
	Degraded() bool
}

// StoreDegraded queries the degraded signal of the first Degrader down
// s's Unwrap chain (false when untracked).
func StoreDegraded(s Store) bool {
	if d, ok := storeAs[Degrader](s); ok {
		return d.Degraded()
	}
	return false
}

// RangeStore is a Store that can also move count adjacent vectors
// [vi, vi+count) in a single ranged request. dst/src hold the vectors
// back to back (count * vecLen float64s), or for count 1 one record of
// up to vecLen, which moves only its own bytes. Implementations honour ctx
// cancellation where the transport allows it; a nil ctx means
// context.Background(). The Store concurrency contract carries over:
// concurrent ranged calls are safe when their vector ranges are
// disjoint (or both are reads).
type RangeStore interface {
	Store
	// ReadRange fills dst with vectors [vi, vi+count).
	ReadRange(ctx context.Context, vi, count int, dst []float64) error
	// WriteRange persists src as vectors [vi, vi+count).
	WriteRange(ctx context.Context, vi, count int, src []float64) error
}

// Syncer is implemented by stores that can force buffered state to
// stable storage. No store in this module implements it any more: it
// and SyncStore stay only because the benchmark harness's traced store
// forwards Sync through SyncStore.
type Syncer interface {
	Sync() error
}

// SyncStore syncs the first Syncer down s's Unwrap chain, else does
// nothing. A Syncer with an inner store syncs it through this helper
// after itself, so a sync request reaches every layer that has one.
func SyncStore(s Store) error {
	if sy, ok := storeAs[Syncer](s); ok {
		return sy.Sync()
	}
	return nil
}

// checkRange validates a ranged call against a store's geometry: count
// whole vectors, or a single record of 1 to vecLen float64s.
func checkRange(n, vecLen, vi, count, bufLen int, op string) error {
	if count < 1 || vi < 0 || vi+count > n {
		return fmt.Errorf("ooc: ranged %s [%d,%d) out of range (n=%d)", op, vi, vi+count, n)
	}
	if bufLen != count*vecLen && (count != 1 || bufLen < 1 || bufLen > vecLen) {
		return fmt.Errorf("ooc: ranged %s buffer %d floats, want %d", op, bufLen, count*vecLen)
	}
	return nil
}

// ReadRangeOf performs a ranged read against any Store: natively when
// the store is a RangeStore, else as a per-vector loop. The loop
// fallback checks ctx between vectors so slow stores stay cancellable.
// A single vector may be a record shorter than vecLen.
func ReadRangeOf(ctx context.Context, s Store, vecLen, vi, count int, dst []float64) error {
	if rs, ok := s.(RangeStore); ok {
		return rs.ReadRange(ctx, vi, count, dst)
	}
	for i := 0; i < count; i++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := s.ReadVector(vi+i, dst[i*vecLen:min((i+1)*vecLen, len(dst))]); err != nil {
			return err
		}
	}
	return nil
}

// WriteRangeOf is the write-side counterpart of ReadRangeOf.
func WriteRangeOf(ctx context.Context, s Store, vecLen, vi, count int, src []float64) error {
	if rs, ok := s.(RangeStore); ok {
		return rs.WriteRange(ctx, vi, count, src)
	}
	for i := 0; i < count; i++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := s.WriteVector(vi+i, src[i*vecLen:min((i+1)*vecLen, len(src))]); err != nil {
			return err
		}
	}
	return nil
}
