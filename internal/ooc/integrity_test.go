package ooc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func fillVec(v []float64, vi int) {
	for i := range v {
		v[i] = float64(vi*1000 + i + 1)
	}
}

func newTestChecksumStore(t *testing.T, n, vecLen int) (*ChecksumStore, string) {
	t.Helper()
	side := filepath.Join(t.TempDir(), "vectors.sum")
	cs, err := NewChecksumStore(NewMemStore(n, vecLen), side, n, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	return cs, side
}

func TestChecksumStoreRoundTrip(t *testing.T) {
	n, vl := 8, 16
	cs, _ := newTestChecksumStore(t, n, vl)
	defer cs.Close()
	buf := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := cs.WriteVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		if err := cs.ReadVector(vi, got); err != nil {
			t.Fatalf("vector %d: %v", vi, err)
		}
		fillVec(buf, vi)
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("vector %d element %d: got %v want %v", vi, i, got[i], buf[i])
			}
		}
	}
	if cs.CorruptReads() != 0 {
		t.Errorf("corrupt reads on clean store: %d", cs.CorruptReads())
	}
}

func TestChecksumStoreNeverWrittenReadsZeros(t *testing.T) {
	cs, _ := newTestChecksumStore(t, 4, 8)
	defer cs.Close()
	got := make([]float64, 8)
	// A fresh backing store legitimately reads zeros: generation 0 must
	// not be treated as corruption.
	if err := cs.ReadVector(2, got); err != nil {
		t.Fatalf("never-written read: %v", err)
	}
}

func TestChecksumStoreDetectsCorruption(t *testing.T) {
	n, vl := 4, 8
	inner := NewMemStore(n, vl)
	side := filepath.Join(t.TempDir(), "v.sum")
	cs, err := NewChecksumStore(inner, side, n, vl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	buf := make([]float64, vl)
	fillVec(buf, 1)
	if err := cs.WriteVector(1, buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored copy behind the checksum layer's back.
	buf[3] += 0.5
	if err := inner.WriteVector(1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vl)
	err = cs.ReadVector(1, got)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("read of corrupted vector: got %v, want *CorruptionError", err)
	}
	if ce.Vector != 1 {
		t.Errorf("corruption reported for vector %d, want 1", ce.Vector)
	}
	if ce.CorruptVector() != 1 {
		t.Errorf("CorruptVector() = %d, want 1", ce.CorruptVector())
	}
	if !IsCorruption(err) || IsCorruption(errors.New("x")) {
		t.Error("IsCorruption misclassifies")
	}
	if cs.CorruptReads() != 1 {
		t.Errorf("CorruptReads = %d, want 1", cs.CorruptReads())
	}
	// A rewrite heals the vector.
	fillVec(buf, 1)
	if err := cs.WriteVector(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.ReadVector(1, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

// TestChecksumStoreReopen pins what is left of reopening: a second
// ChecksumStore over a medium an earlier one wrote starts with empty
// tables, so the old bytes read as never-written (accepted, unverified)
// until this store writes them, and nothing is written at sidecarPath.
func TestChecksumStoreReopen(t *testing.T) {
	n, vl := 6, 10
	inner := NewMemStore(n, vl)
	side := filepath.Join(t.TempDir(), "v.sum")
	cs, err := NewChecksumStore(inner, side, n, vl)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := cs.WriteVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Errorf("sidecar path %s exists (stat err %v); the tables are memory-only", side, err)
	}

	cs2, err := NewChecksumStore(inner, side, n, vl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	// Rot a leftover vector behind the new store's back: with no recorded
	// checksum it is not this store's to judge.
	inner.data[3][0]++
	got := make([]float64, vl)
	if err := cs2.ReadVector(3, got); err != nil {
		t.Fatalf("never-written vector after reopen: %v", err)
	}
	// Once written through the new store the vector is verified again.
	fillVec(buf, 3)
	if err := cs2.WriteVector(3, buf); err != nil {
		t.Fatal(err)
	}
	inner.data[3][0]++
	if err := cs2.ReadVector(3, got); !IsCorruption(err) {
		t.Fatalf("rotted vector written by this store: got %v, want corruption", err)
	}
}

// TestChecksumDetectsDamage pins what the 32-bit sum is trusted to
// catch, at a short vector and at the three benchmark workloads' vector
// lengths: bit flips, torn and lost writes, scattered multi-bit rot and
// misdirected writes each come back as a *CorruptionError naming the
// vector, and a rewrite heals it. A prefix record gets the same: a bit
// flipped or a write torn inside the prefix, and a read of any other
// length.
func TestChecksumDetectsDamage(t *testing.T) {
	for _, vl := range append([]int{16}, checksumVecLens...) {
		t.Run(fmt.Sprintf("len%d", vl), func(t *testing.T) {
			t.Parallel()
			const n = 3
			rng := rand.New(rand.NewSource(int64(vl)))
			inner := NewMemStore(n, vl)
			cs, err := NewChecksumStore(inner, "", n, vl)
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			fresh := func() []float64 {
				v := make([]float64, vl)
				for i := range v {
					v[i] = math.Float64frombits(rng.Uint64())
				}
				return v
			}
			vecs := [n][]float64{fresh(), fresh(), fresh()}
			for vi, v := range vecs {
				if err := cs.WriteVector(vi, v); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]float64, vl)
			var damaged int64
			detectedAt := func(vi, length int, what string, args ...any) {
				t.Helper()
				damaged++
				var ce *CorruptionError
				if err := cs.ReadVector(vi, got[:length]); !errors.As(err, &ce) || ce.Vector != vi {
					t.Fatalf("vector %d, %s: read returned %v, want its *CorruptionError", vi, fmt.Sprintf(what, args...), err)
				}
			}
			detected := func(vi int, what string, args ...any) {
				t.Helper()
				detectedAt(vi, vl, what, args...)
			}
			cleanAt := func(vi, length int) {
				t.Helper()
				if err := cs.ReadVector(vi, got[:length]); err != nil {
					t.Fatalf("vector %d intact: %v", vi, err)
				}
			}
			clean := func(vi int) {
				t.Helper()
				cleanAt(vi, vl)
			}
			// The stored copy of vector 1, as the bytes a medium would hold.
			stored := f64Bytes(inner.data[1])
			flip := func(bit int) { stored[bit/8] ^= 1 << (bit % 8) }

			// Single-bit flips: every bit of the short vector, a bit at a
			// different position of every 16th word of a long one (the
			// race detector makes each read of a long vector ~0.5 ms).
			step := 1
			if vl > 16 {
				step = 16*64 + 1
			}
			for bit := 0; bit < len(stored)*8; bit += step {
				flip(bit)
				detected(1, "bit %d flipped", bit)
				flip(bit)
			}
			clean(1)

			// 2-8 scattered bits.
			for i := 0; i < 10000; i++ {
				bits := map[int]bool{}
				for k := 2 + rng.Intn(7); len(bits) < k; {
					bits[rng.Intn(len(stored)*8)] = true
				}
				for b := range bits {
					flip(b)
				}
				detected(1, "bits %v flipped", bits)
				for b := range bits {
					flip(b)
				}
			}
			clean(1)

			// Torn writes: the store acknowledged a new payload but only
			// a prefix of it landed — none of it at cut 0, a lost write —
			// over a tail of either the old content or zeros (a tail that
			// happens to equal the new bytes is no damage). Every byte
			// boundary of the short vector, every 128 bytes of a long one.
			old := append([]byte(nil), stored...)
			next := fresh()
			if err := cs.WriteVector(1, next); err != nil {
				t.Fatal(err)
			}
			clean(1)
			unit := 1
			if vl > 16 {
				unit = 128
			}
			for _, tail := range []string{"old", "zeroed"} {
				copy(stored, old)
				if tail == "zeroed" {
					clear(stored)
				}
				for cut := 0; cut < len(stored) && !bytes.Equal(stored[cut:], f64Bytes(next)[cut:]); cut += unit {
					detected(1, "torn at byte %d over a %s tail", cut, tail)
					copy(stored[cut:cut+unit], f64Bytes(next)[cut:])
				}
				clean(1)
			}

			// A misdirected write: two neighbours land in each other's place.
			inner.data[0], inner.data[1] = inner.data[1], inner.data[0]
			detected(0, "swapped with vector 1")
			detected(1, "swapped with vector 0")
			clean(2)
			for vi := 0; vi < 2; vi++ {
				if err := cs.WriteVector(vi, vecs[vi]); err != nil {
					t.Fatal(err)
				}
				clean(vi)
			}

			// Prefix records: vector 2 rewritten as its first half. The
			// sum covers the prefix and the length travels with it.
			short := vl / 2
			prefix := fresh()[:short]
			if err := cs.WriteVector(2, prefix); err != nil {
				t.Fatal(err)
			}
			cleanAt(2, short)
			for _, length := range []int{vl, short - 1, short + 1} {
				damaged++
				var ce *CorruptionError
				if err := cs.ReadVector(2, got[:length]); !errors.As(err, &ce) || ce.Len != length || ce.WantLen != short {
					t.Fatalf("read of %d floats from a %d-float record returned %v, want a length *CorruptionError", length, short, err)
				}
			}
			cleanAt(2, short)
			stored = f64Bytes(inner.data[2][:short])
			for bit := 0; bit < len(stored)*8; bit += step {
				flip(bit)
				detectedAt(2, short, "prefix bit %d flipped", bit)
				flip(bit)
			}
			// A torn prefix: only the start of the rewrite landed, over the
			// old prefix.
			old = append([]byte(nil), stored...)
			next = fresh()[:short]
			if err := cs.WriteVector(2, next); err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(stored); cut += unit {
				copy(stored[cut:], old[cut:])
				if !bytes.Equal(stored, f64Bytes(next)) {
					detectedAt(2, short, "prefix torn at byte %d", cut)
				}
				copy(stored, f64Bytes(next))
			}
			cleanAt(2, short)
			if cs.CorruptReads() != damaged {
				t.Errorf("CorruptReads = %d after %d damaged reads", cs.CorruptReads(), damaged)
			}
		})
	}
}

func TestRetryPolicyTransient(t *testing.T) {
	rp := RetryPolicy{Max: 5, Base: time.Microsecond, Cap: 10 * time.Microsecond}
	var counter atomic.Int64
	fails := 3
	err := rp.runCtx(nil, &counter, func() error {
		if fails > 0 {
			fails--
			return fmt.Errorf("boom: %w", ErrTransientIO)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retries exhausted early: %v", err)
	}
	if counter.Load() != 3 {
		t.Errorf("retry counter = %d, want 3", counter.Load())
	}
	// Permanent errors must not be retried.
	counter.Store(0)
	calls := 0
	perm := errors.New("permanent")
	if err := rp.runCtx(nil, &counter, func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("got %v, want permanent error", err)
	}
	if calls != 1 || counter.Load() != 0 {
		t.Errorf("permanent error retried: calls=%d counter=%d", calls, counter.Load())
	}
	// Exhausted budget surfaces the transient error.
	always := fmt.Errorf("still down: %w", ErrTransientIO)
	if err := rp.runCtx(nil, nil, func() error { return always }); !IsTransient(err) {
		t.Fatalf("got %v, want transient after exhaustion", err)
	}
}
