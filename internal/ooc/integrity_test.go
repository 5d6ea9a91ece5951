package ooc

import (
	"errors"
	"fmt"
	"math"
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
	if bad, err := cs2.Verify(); err != nil || bad != nil {
		t.Errorf("Verify on fresh tables = %v, %v; want nothing to scan", bad, err)
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

func TestChecksumStoreVerifyScan(t *testing.T) {
	n, vl := 5, 6
	inner := NewMemStore(n, vl)
	cs, err := NewChecksumStore(inner, filepath.Join(t.TempDir(), "v.sum"), n, vl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	buf := make([]float64, vl)
	for vi := 0; vi < n; vi++ {
		fillVec(buf, vi)
		if err := cs.WriteVector(vi, buf); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := cs.Verify()
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean store: bad=%v err=%v", bad, err)
	}
	fillVec(buf, 3)
	buf[0] = math.Pi
	if err := inner.WriteVector(3, buf); err != nil {
		t.Fatal(err)
	}
	bad, err = cs.Verify()
	if err != nil || len(bad) != 1 || bad[0] != 3 {
		t.Fatalf("after corrupting vector 3: bad=%v err=%v", bad, err)
	}
}

func TestRetryPolicyTransient(t *testing.T) {
	rp := RetryPolicy{Max: 5, Base: time.Microsecond, Cap: 10 * time.Microsecond}
	var counter atomic.Int64
	fails := 3
	err := rp.run(&counter, func() error {
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
	if err := rp.run(&counter, func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("got %v, want permanent error", err)
	}
	if calls != 1 || counter.Load() != 0 {
		t.Errorf("permanent error retried: calls=%d counter=%d", calls, counter.Load())
	}
	// Exhausted budget surfaces the transient error.
	always := fmt.Errorf("still down: %w", ErrTransientIO)
	if err := rp.run(nil, func() error { return always }); !IsTransient(err) {
		t.Fatalf("got %v, want transient after exhaustion", err)
	}
}
