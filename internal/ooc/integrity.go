package ooc

// Integrity layer — the fault-tolerance half of the paper's closing
// claim. "Given enough execution time and disk space, the out-of-core
// version can be deployed to essentially infer trees on datasets of
// arbitrary size" (§4.3) implies runs long enough that disk faults,
// torn writes and bit rot are expected events, not exceptions. This
// file holds what the manager needs to detect them:
//
//   - The manager keeps one table entry per vector (vecEntry, in
//     manager.go): its record's length and the CRC-32C of the copy the
//     store holds. Every read from the store is checked against it; a
//     mismatch surfaces as a typed *CorruptionError instead of silently
//     poisoning the likelihood. The table lives and dies with the
//     process: a process reads only vectors it wrote, so there is
//     nothing to persist.
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
	"time"

	"oocphylo/internal/obs"
)

// CorruptionError reports that a vector read back from the backing
// store does not match the record written last — a torn write, a
// flipped bit or an overwritten region.
type CorruptionError struct {
	// Vector is the corrupted vector's global index.
	Vector int
	// Want is the checksum recorded at write time; Got what the payload
	// read back hashes to.
	Want, Got uint32
}

// Error implements error.
func (e *CorruptionError) Error() string {
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
// transient. Every retry taken is added to counter (nil: none). A
// non-nil ctx aborts the backoff sleeps once cancelled. op itself is
// never interrupted — the first attempt always runs to completion, so a
// cancelled context degrades the policy to "no retries" rather than
// "no I/O".
func (rp RetryPolicy) runCtx(ctx context.Context, counter *obs.Counter, op func() error) error {
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
		counter.Inc()
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

// NewChecksumStore returns inner. The manager checks every vector it
// reads against its own table (see vecEntry), so there is no checksum
// layer to build; the function stays for bench/workloads.go, which
// still calls it, until the benchmark opens its stack through
// analysis.Open.
func NewChecksumStore(inner Store, _ string, _, _ int) (Store, error) { return inner, nil }
