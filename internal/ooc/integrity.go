package ooc

// Integrity layer — the fault-tolerance half of the paper's closing
// claim. "Given enough execution time and disk space, the out-of-core
// version can be deployed to essentially infer trees on datasets of
// arbitrary size" (§4.3) implies runs long enough that disk faults,
// torn writes and bit rot are expected events, not exceptions. This
// file adds what the store stack needs to detect them:
//
//   - ChecksumStore wraps any Store with an in-memory per-vector
//     CRC-32C table. Every read is verified against the checksum
//     recorded at write time; a mismatch surfaces as a typed
//     *CorruptionError instead of silently poisoning the likelihood.
//     The table lives and dies with the process: a process reads only
//     vectors it wrote, so there is nothing to persist.
//
//   - ErrTransientIO marks a read that failed but may succeed later.
//     The manager re-issues nothing: such a read is unreadable, like
//     one refused by an open breaker. Only the remote tier, whose
//     failures are a network's, re-issues a request (RemoteRetry).
//
// Crucially, neither need abort a run: the LvD framing of likelihood
// computation as a recompute-vs-store tradeoff (Bryant et al.) means
// any ancestral vector is recomputable from its children, so the
// likelihood engine turns a *CorruptionError or an unreadable vector
// into a partial re-traversal (see plf.Engine) — extra compute instead
// of a failed run. A write error stays fatal. That is also why a 32-bit code is enough: the sum only has to
// detect, never to repair, and CRC-32C (Castagnoli) is the code the CPU
// computes itself (SSE4.2 / ARMv8 CRC instructions behind hash/crc32),
// so a verified read or write costs memory bandwidth, not a core. It
// catches every 1–3-bit error in a vector up to 2³¹ bits and every
// burst of 32 bits or fewer with certainty, anything else with
// probability 1 − 2⁻³².

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// CorruptionError reports that a vector read back from the backing
// store does not match the record written last — a torn write, a
// flipped bit, an overwritten region, or a read of another length.
type CorruptionError struct {
	// Vector is the corrupted vector's global index.
	Vector int
	// Want is the checksum recorded at write time; Got what the payload
	// read back hashes to.
	Want, Got uint32
	// Len and WantLen are set when the read asked for Len float64s of a
	// record written WantLen long (and nothing was read).
	Len, WantLen int
}

// Error implements error.
func (e *CorruptionError) Error() string {
	if e.Len != e.WantLen {
		return fmt.Sprintf("ooc: vector %d corrupt: read of %d float64s, record is %d", e.Vector, e.Len, e.WantLen)
	}
	return fmt.Sprintf("ooc: vector %d corrupt: checksum %08x, want %08x", e.Vector, e.Got, e.Want)
}

// IsCorruption reports whether err is (or wraps) a *CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// ErrTransientIO marks an I/O failure believed to be transient: the
// remote tier re-issues it within RemoteRetry, and a read that still
// fails is unreadable, recomputed by the engine, not fatal. The object
// store wraps transport and 5xx errors with it, FaultStore its injected
// read EIO.
var ErrTransientIO = errors.New("transient I/O error")

// IsTransient reports whether err is (or wraps) ErrTransientIO.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientIO) }

// RetryPolicy caps the remote tier's retry loop (TieredConfig.
// RemoteRetry) for transient errors: up to Max re-issues with
// full-jitter exponential backoff starting at Base and capped at Cap.
// The zero value disables retries (first error wins).
type RetryPolicy struct {
	// Max is the number of re-issues after the initial attempt.
	Max int
	// Base is the backoff envelope before the first retry (default
	// 200µs when Max > 0); each subsequent retry doubles it.
	Base time.Duration
	// Cap bounds the per-retry envelope (default 50ms).
	Cap time.Duration
	// Rand supplies the uniform variates for full-jitter backoff: each
	// sleep is drawn uniformly from (0, envelope]. Deterministic
	// doubling would wake every remote caller at the same instant after a
	// shared outage — a synchronized retry storm — so jitter is always
	// on; nil uses the (goroutine-safe) global math/rand source, tests
	// inject a seeded func to stay deterministic. A policy handed to a
	// TieredStore is run from several goroutines at once, so a func
	// injected there must be safe for concurrent use.
	Rand func() float64
}

// jittered draws one full-jitter sleep from the envelope d.
func (rp RetryPolicy) jittered(d time.Duration) time.Duration {
	f := rand.Float64
	if rp.Rand != nil {
		f = rp.Rand
	}
	j := time.Duration(f() * float64(d))
	if j <= 0 {
		j = 1
	}
	return j
}

// runCtx executes op, re-issuing it per the policy while the error is
// transient. Every retry taken is added to counter (the tier's callers
// run concurrently, hence atomic). A non-nil ctx aborts the backoff
// sleeps once cancelled. op itself is never interrupted — the first
// attempt always runs to completion, so a cancelled context degrades
// the policy to "no retries" rather than "no I/O".
func (rp RetryPolicy) runCtx(ctx context.Context, counter *atomic.Int64, op func() error) error {
	err := op()
	delay := rp.Base
	if delay <= 0 {
		delay = 200 * time.Microsecond
	}
	cap := rp.Cap
	if cap <= 0 {
		cap = 50 * time.Millisecond
	}
	for attempt := 0; attempt < rp.Max && IsTransient(err); attempt++ {
		if delay > cap {
			delay = cap
		}
		sleep := rp.jittered(delay)
		if ctx != nil {
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return fmt.Errorf("ooc: retry abandoned after %w: %w", err, ctx.Err())
			}
		} else {
			time.Sleep(sleep)
		}
		delay *= 2
		if counter != nil {
			counter.Add(1)
		}
		err = op()
	}
	return err
}

// crcTable selects CRC-32C (Castagnoli), the polynomial hash/crc32
// computes with the CPU's CRC instruction; every sum in this package
// goes through crc32c.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// vectorChecksum hashes a vector's payload in its on-disk (little-
// endian float64) representation, so the checksum is byte-exact against
// what FileStore persists.
func vectorChecksum(v []float64) uint32 {
	if hostLittleEndian {
		return crc32c(f64Bytes(v))
	}
	var sum uint32
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		sum = crc32.Update(sum, crcTable, buf[:])
	}
	return sum
}

// ChecksumStore wraps an inner Store with per-vector CRC-32C
// verification of each record. The table lives in memory only — 8
// bytes per vector, gone with the process, like every vector it
// describes; like the manager's own per-vector index it is O(n)
// bookkeeping, not charged to -L. Reads of a never-written vector are
// accepted as-is (a fresh backing file legitimately reads zeros); any
// other read that asks for a length other than the last write's, or
// whose payload does not hash to the recorded checksum, returns a
// *CorruptionError.
//
// Concurrency matches the Store contract: calls on distinct vectors are
// safe (per-vector state lives at distinct slice indices), concurrent
// operations on the same vector are the caller's bug.
type ChecksumStore struct {
	inner Store
	n     int
	// sums[vi] is 0 until vi is first written, then the record's length
	// (in float64s, never 0) above bit 32 and its CRC-32C below.
	sums []uint64
}

// NewChecksumStore wraps an inner store holding numVectors vectors of
// vecLen float64s. sidecarPath is accepted and ignored: the checksums
// were once mirrored to a file there, and bench/workloads.go still
// passes one.
func NewChecksumStore(inner Store, sidecarPath string, numVectors, vecLen int) (*ChecksumStore, error) {
	if numVectors < 0 || vecLen <= 0 {
		return nil, fmt.Errorf("ooc: invalid checksum store geometry: %d vectors of %d", numVectors, vecLen)
	}
	return &ChecksumStore{inner: inner, n: numVectors, sums: make([]uint64, numVectors)}, nil
}

// ReadVector implements Store: check the length, read through, then
// verify.
func (s *ChecksumStore) ReadVector(vi int, dst []float64) error {
	if vi < 0 || vi >= s.n {
		return fmt.Errorf("ooc: checksum store read out of range: %d", vi)
	}
	want := s.sums[vi]
	if want != 0 && len(dst) != s.recordLen(vi) {
		// A record is only ever read back at the length it was written.
		return &CorruptionError{Vector: vi, Want: uint32(want), Len: len(dst), WantLen: s.recordLen(vi)}
	}
	if err := s.inner.ReadVector(vi, dst); err != nil {
		return err
	}
	if want == 0 {
		// Never written: a fresh backing file reads zeros, which is fine.
		return nil
	}
	if got := vectorChecksum(dst); got != uint32(want) {
		return &CorruptionError{Vector: vi, Want: uint32(want), Got: got}
	}
	return nil
}

// WriteVector implements Store: write through, then record the payload's
// length and checksum. Both come from the caller's payload (the write
// intent), so a torn write underneath is caught by the next read.
func (s *ChecksumStore) WriteVector(vi int, src []float64) error {
	if vi < 0 || vi >= s.n {
		return fmt.Errorf("ooc: checksum store write out of range: %d", vi)
	}
	if err := s.inner.WriteVector(vi, src); err != nil {
		return err
	}
	s.sums[vi] = uint64(len(src))<<32 | uint64(vectorChecksum(src))
	return nil
}

// recordLen is the length of vector vi's last write (0 if never
// written).
func (s *ChecksumStore) recordLen(vi int) int { return int(s.sums[vi] >> 32) }

// Unwrap implements Unwrapper.
func (s *ChecksumStore) Unwrap() Store { return s.inner }

// Close implements Store.
func (s *ChecksumStore) Close() error { return s.inner.Close() }
