package ooc

// Deterministic crashpoint framework — the torture half of resource
// governance. Checkpointing (PR 2's crash-safe store plus the search
// checkpoints) is only trustworthy if runs actually die at awkward
// moments and come back bit-identical; this file makes the dying
// reproducible. CrashStore wraps any Store and hard-kills the process
// at the N-th vector I/O — before the operation runs, so the write
// never lands and the store is left exactly as torn as a real power
// cut at that instant. The kill/resume soak (cmd/oocraxml) drives a
// seeded schedule of such crashpoints through repeated crash+resume
// cycles and asserts the final likelihood matches an uninterrupted
// run bit for bit.

import (
	"math/rand"
	"os"
	"sync/atomic"
)

// CrashExitCode is the exit status of a fired crashpoint — distinct
// from success (0) and ordinary failure (1) so harnesses can tell a
// scheduled kill from a genuine error.
const CrashExitCode = 3

// CrashStore wraps a Store and terminates the process at the N-th
// vector operation (reads and writes both count). The kill fires
// BEFORE the operation executes: a write crashpoint means that write
// never reached the store, exactly like a power cut between intent
// and completion. A CrashStore with after <= 0 never fires and only
// counts operations. Safe for concurrent use (the async pipeline's
// workers hit it from several goroutines).
type CrashStore struct {
	inner Store
	after int64
	ops   atomic.Int64
	exit  func(ops int64)
}

// NewCrashStore wraps inner with a crashpoint at the after-th
// operation (1-based; <= 0 disables).
func NewCrashStore(inner Store, after int64) *CrashStore {
	return &CrashStore{
		inner: inner,
		after: after,
		exit:  func(int64) { os.Exit(CrashExitCode) },
	}
}

// SetExit replaces the process-kill with fn — unit tests substitute a
// panic they can recover. Call before any operation.
func (s *CrashStore) SetExit(fn func(ops int64)) { s.exit = fn }

// Ops returns the number of vector operations observed so far.
func (s *CrashStore) Ops() int64 { return s.ops.Load() }

func (s *CrashStore) maybeCrash() {
	if s.after <= 0 {
		return
	}
	if n := s.ops.Add(1); n == s.after {
		s.exit(n)
	}
}

// ReadVector implements Store.
func (s *CrashStore) ReadVector(vi int, dst []float64) error {
	s.maybeCrash()
	return s.inner.ReadVector(vi, dst)
}

// WriteVector implements Store.
func (s *CrashStore) WriteVector(vi int, src []float64) error {
	s.maybeCrash()
	return s.inner.WriteVector(vi, src)
}

// Close implements Store.
func (s *CrashStore) Close() error { return s.inner.Close() }

// Unwrap implements Unwrapper.
func (s *CrashStore) Unwrap() Store { return s.inner }

// CrashPoint returns the deterministic operation count for crash cycle
// `cycle` of a seeded kill schedule: a base that doubles per cycle —
// so later crashes land deeper into the (partially resumed) run —
// plus bounded seeded jitter, so no two schedules kill at identical
// offsets yet every schedule is exactly reproducible.
func CrashPoint(seed int64, cycle int, base, jitter int64) int64 {
	if base <= 0 {
		base = 500
	}
	n := base << uint(cycle)
	if jitter > 0 {
		rng := rand.New(rand.NewSource(seed + int64(cycle)*1000003))
		n += rng.Int63n(jitter)
	}
	return n
}
