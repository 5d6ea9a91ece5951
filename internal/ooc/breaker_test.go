package ooc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a Breaker through cooldowns without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(threshold, probes int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewBreaker(BreakerConfig{
		Threshold: threshold,
		Cooldown:  cooldown,
		Probes:    probes,
		Now:       clk.now,
	}), clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := testBreaker(3, 1, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
		if b.State() != BreakerClosed {
			t.Fatalf("opened after only %d failures (threshold 3)", i+1)
		}
	}
	// A success resets the consecutive-failure count.
	if !b.Allow() {
		t.Fatal("closed breaker refused request")
	}
	b.Success()
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	b.Allow()
	b.Failure() // third consecutive failure
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	if s := b.Stats(); s.Opens != 1 {
		t.Errorf("Opens = %d, want 1", s.Opens)
	}
}

func TestBreakerShortCircuitsWhileOpen(t *testing.T) {
	b, clk := testBreaker(1, 1, time.Second)
	b.Allow()
	b.Failure()
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("open breaker admitted request %d before cooldown", i)
		}
	}
	if s := b.Stats(); s.ShortCircuits != 4 {
		t.Errorf("ShortCircuits = %d, want 4", s.ShortCircuits)
	}
	// State() reports half-open (probe-eligible) once the cooldown has
	// elapsed, before any Allow call.
	clk.advance(time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Errorf("state after cooldown = %v, want half-open", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := testBreaker(1, 1, time.Second)
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	// While the probe is in flight, no second request may pass.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Success()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused request after recovery")
	}
	b.Success()
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker(1, 1, time.Second)
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	b.Allow()
	b.Failure() // probe fails: reopen and restart the cooldown
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a request before the new cooldown")
	}
	if s := b.Stats(); s.Opens != 2 {
		t.Errorf("Opens = %d, want 2 (trip + reprobe failure)", s.Opens)
	}
}

func TestBreakerMultiProbeClose(t *testing.T) {
	b, clk := testBreaker(1, 3, time.Second)
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("probe %d refused", i)
		}
		b.Success()
		if st := b.State(); st != BreakerHalfOpen {
			t.Fatalf("closed after only %d probe successes (want 3)", i+1)
		}
	}
	if !b.Allow() {
		t.Fatal("third probe refused")
	}
	b.Success()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after 3 probe successes = %v, want closed", st)
	}
}

func TestBreakerCancelledReleasesProbeSlot(t *testing.T) {
	b, clk := testBreaker(1, 1, time.Second)
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// Caller's context ended mid-probe: the outcome says nothing about
	// the backend, so the slot frees without a state change.
	b.Cancelled()
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", st)
	}
	if !b.Allow() {
		t.Fatal("probe slot not released by Cancelled")
	}
	b.Success()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v, want closed", st)
	}
}

func TestBreakerOnTransition(t *testing.T) {
	b, clk := testBreaker(2, 1, time.Second)
	var mu sync.Mutex
	var seq []string
	b.OnTransition(func(from, to BreakerState) {
		mu.Lock()
		seq = append(seq, fmt.Sprintf("%v->%v", from, to))
		mu.Unlock()
	})
	b.Allow()
	b.Failure()
	b.Allow()
	b.Failure() // closed -> open
	clk.advance(time.Second)
	b.Allow()   // open -> half-open
	b.Success() // half-open -> closed
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	mu.Lock()
	defer mu.Unlock()
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("transition %d = %q, want %q", i, seq[i], want[i])
		}
	}
}

func TestErrCircuitOpenIsNotTransient(t *testing.T) {
	// Retrying against an open breaker would just spin; the error must
	// route callers to their fallback (recompute, cache overflow) instead of the
	// retry loop.
	err := fmt.Errorf("ooc: remote read [0,1): %w", ErrCircuitOpen)
	if !IsCircuitOpen(err) {
		t.Error("wrapped ErrCircuitOpen not detected")
	}
	if IsTransient(err) {
		t.Error("ErrCircuitOpen must not be transient")
	}
}

func TestVectorReadError(t *testing.T) {
	inner := fmt.Errorf("remote read: %w", ErrTransientIO)
	err := error(&VectorReadError{Vi: 7, Err: inner})
	var fe interface{ FailedVector() int }
	if !errors.As(err, &fe) || fe.FailedVector() != 7 {
		t.Fatalf("FailedVector not exposed: %v", err)
	}
	if !IsTransient(err) {
		t.Error("VectorReadError must unwrap to its cause")
	}
}
