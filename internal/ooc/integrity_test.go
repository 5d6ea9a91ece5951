package ooc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"oocphylo/internal/obs"
)

func fillVec(v []float64, vi int) {
	for i := range v {
		v[i] = float64(vi*1000 + i + 1)
	}
}

// checked drives the manager's two checked store paths by hand: put is
// a synchronous write-back (writeBack, as eviction and Flush do), get a
// demand read (demandRead) at the length the manager recorded. Nothing
// else touches the manager, so no vector is ever resident.
type checked struct{ m *Manager }

func newChecked(t *testing.T, s Store, n, vecLen int) checked {
	t.Helper()
	m, err := NewManager(Config{NumVectors: n, VectorLen: vecLen, Slots: n, Strategy: NewLRU(n), Store: s})
	if err != nil {
		t.Fatal(err)
	}
	return checked{m}
}

func (c checked) put(vi int, src []float64) error { return c.m.writeBack(vi, src) }

func (c checked) get(vi int, dst []float64) error {
	return c.m.demandRead(vi, dst[:c.m.table[vi].length()])
}

// TestChecksumStoreRoundTrip pins the manager's checked round trip:
// every vector written back reads back bit-for-bit through the check.
func TestChecksumStoreRoundTrip(t *testing.T) {
	n, vl := 8, 16
	cs := newChecked(t, NewMemStore(n, vl), n, vl)
	buf := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := cs.put(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := cs.get(vi, got); err != nil || !slices.Equal(got, buf) {
			t.Fatalf("vector %d round trip = %v, %v; want %v", vi, got, err, buf)
		}
	}
}

// TestChecksumStoreNeverWrittenReadsZeros pins that a fresh backing
// store legitimately reads zeros: a vector the manager never wrote back
// has no recorded checksum and is not treated as corruption.
func TestChecksumStoreNeverWrittenReadsZeros(t *testing.T) {
	cs := newChecked(t, NewMemStore(4, 8), 4, 8)
	got := make([]float64, 8)
	if err := cs.get(2, got); err != nil || got[0] != 0 {
		t.Fatalf("never-written read = %v, %v; want zeros", got, err)
	}
}

// TestChecksumStoreReopen pins what is left of reopening: a second
// manager over leftovers an earlier one wrote starts with an empty
// table, so the old bytes read as-is (accepted, unjudged, rotted or
// not) until this manager writes them back. NewChecksumStore adds no
// layer and writes nothing at its sidecar path.
func TestChecksumStoreReopen(t *testing.T) {
	n, vl := 6, 10
	inner := NewMemStore(n, vl)
	side := filepath.Join(t.TempDir(), "v.sum")
	if s, err := NewChecksumStore(inner, side, n, vl); s != Store(inner) || err != nil {
		t.Fatalf("NewChecksumStore = %T, %v; want its argument", s, err)
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Errorf("sidecar path %s exists (stat err %v); nothing is written there", side, err)
	}
	first := newChecked(t, inner, n, vl)
	buf := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := first.put(vi, buf); err != nil {
			t.Fatal(err)
		}
	}

	second := newChecked(t, inner, n, vl)
	// Rot a leftover vector: with no recorded checksum it is not this
	// manager's to judge.
	inner.data[3][0]++
	got := make([]float64, vl)
	if err := second.get(3, got); err != nil {
		t.Fatalf("leftover vector: %v", err)
	}
	// Once written back by this manager the vector is checked again.
	fillVec(buf, 3)
	if err := second.put(3, buf); err != nil {
		t.Fatal(err)
	}
	inner.data[3][0]++
	if err := second.get(3, got); !IsCorruption(err) {
		t.Fatalf("rotted vector this manager wrote: got %v, want corruption", err)
	}
}

// TestChecksumDetectsDamage pins what the manager's 32-bit sum is
// trusted to catch, at a short vector and at the three benchmark
// workloads' vector lengths: bit flips, torn and lost writes, scattered
// multi-bit rot and misdirected writes each come back from a demand
// read as a *CorruptionError naming the vector, and a rewrite heals it.
// A prefix record gets the same: a bit flipped or a write torn inside
// the prefix.
func TestChecksumDetectsDamage(t *testing.T) {
	for _, vl := range append([]int{16}, checksumVecLens...) {
		t.Run(fmt.Sprintf("len%d", vl), func(t *testing.T) {
			t.Parallel()
			const n = 3
			rng := rand.New(rand.NewSource(int64(vl)))
			inner := NewMemStore(n, vl)
			cs := newChecked(t, inner, n, vl)
			fresh := func() []float64 {
				v := make([]float64, vl)
				for i := range v {
					v[i] = math.Float64frombits(rng.Uint64())
				}
				return v
			}
			vecs := [n][]float64{fresh(), fresh(), fresh()}
			for vi, v := range vecs {
				if err := cs.put(vi, v); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]float64, vl)
			detected := func(vi int, what string, args ...any) {
				t.Helper()
				var ce *CorruptionError
				if err := cs.get(vi, got); !errors.As(err, &ce) || ce.Vector != vi || !IsCorruption(err) {
					t.Fatalf("vector %d, %s: read returned %v, want its *CorruptionError", vi, fmt.Sprintf(what, args...), err)
				}
			}
			clean := func(vi int) {
				t.Helper()
				if err := cs.get(vi, got); err != nil {
					t.Fatalf("vector %d intact: %v", vi, err)
				}
			}
			if IsCorruption(errors.New("x")) {
				t.Fatal("IsCorruption misclassifies a plain error")
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
			if err := cs.put(1, next); err != nil {
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
				if err := cs.put(vi, vecs[vi]); err != nil {
					t.Fatal(err)
				}
				clean(vi)
			}

			// Prefix records: vector 2 rewritten as its first half. The
			// sum covers the prefix, which is what the manager reads back.
			short := vl / 2
			prefix := fresh()[:short]
			if err := cs.put(2, prefix); err != nil {
				t.Fatal(err)
			}
			clean(2)
			stored = f64Bytes(inner.data[2][:short])
			for bit := 0; bit < len(stored)*8; bit += step {
				flip(bit)
				detected(2, "prefix bit %d flipped", bit)
				flip(bit)
			}
			// A torn prefix: only the start of the rewrite landed, over the
			// old prefix.
			old = append([]byte(nil), stored...)
			next = fresh()[:short]
			if err := cs.put(2, next); err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(stored); cut += unit {
				copy(stored[cut:], old[cut:])
				if !bytes.Equal(stored, f64Bytes(next)) {
					detected(2, "prefix torn at byte %d", cut)
				}
				copy(stored, f64Bytes(next))
			}
			clean(2)
		})
	}
}

func TestRetryPolicyTransient(t *testing.T) {
	rp := RetryPolicy{Max: 5, Base: time.Microsecond, Cap: 10 * time.Microsecond}
	var counter obs.Counter
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
	if counter.Value() != 3 {
		t.Errorf("retry counter = %d, want 3", counter.Value())
	}
	// Permanent errors must not be retried.
	counter.Set(0)
	calls := 0
	perm := errors.New("permanent")
	if err := rp.runCtx(nil, &counter, func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("got %v, want permanent error", err)
	}
	if calls != 1 || counter.Value() != 0 {
		t.Errorf("permanent error retried: calls=%d counter=%d", calls, counter.Value())
	}
	// Exhausted budget surfaces the transient error.
	always := fmt.Errorf("still down: %w", ErrTransientIO)
	if err := rp.runCtx(nil, nil, func() error { return always }); !IsTransient(err) {
		t.Fatalf("got %v, want transient after exhaustion", err)
	}
}
