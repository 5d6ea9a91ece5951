package ooc

// Circuit breaker for the remote tier. A partitioned or flapping
// object store must not stall engine passes: once the backend has
// failed often enough in a row, further requests are refused locally
// (fast) instead of burning a deadline each: a refused read fails with
// ErrCircuitOpen and the engine recomputes the vector, a refused
// write-back waits in memory. After a cooldown one probe request is let
// through — usually the next demand read, which then pays up to one
// RemoteDeadline — and its outcome decides whether the circuit closes
// again or stays open for another round.
//
// States:
//
//	closed    — requests flow; consecutive failures are counted.
//	open      — requests are refused with ErrCircuitOpen until
//	            Cooldown has elapsed since the trip.
//	half-open — one probe request at a time is admitted; Probes
//	            consecutive successes close the circuit, any failure
//	            reopens it (and restarts the cooldown).
//
// The breaker is deliberately error-kind agnostic: callers decide
// which errors count as backend failures (a caller-cancelled context
// must not trip it) and call Success/Failure accordingly.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrCircuitOpen marks a remote request refused locally because the
// backend's circuit breaker is open. It is NOT transient: retrying in
// place would just spin against the breaker — the caller should fall
// back (recompute a refused read, keep a refused write-back in the
// cache file) and let the half-open probe discover recovery.
var ErrCircuitOpen = errors.New("remote circuit open")

// IsCircuitOpen reports whether err is (or wraps) ErrCircuitOpen.
func IsCircuitOpen(err error) bool { return errors.Is(err, ErrCircuitOpen) }

// VectorReadError marks a demand read the backing store could not
// serve: a corrupt record, a transient I/O error (over a remote, one
// the tier's RemoteRetry did not absorb), or a remote circuit held
// open. It exposes the vector index so an engine that can re-derive
// the vector from local inputs (the PLF recompute identity) converts
// the failure into extra compute instead of a failed pass.
type VectorReadError struct {
	Vi  int
	Err error
}

func (e *VectorReadError) Error() string {
	return fmt.Sprintf("ooc: vector %d unreadable: %v", e.Vi, e.Err)
}

func (e *VectorReadError) Unwrap() error { return e.Err }

// FailedVector implements the structural interface the engine's
// read-recovery path matches, so plf need not import this package.
func (e *VectorReadError) FailedVector() int { return e.Vi }

// BreakerState is a circuit breaker's current position.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for /debug/vars and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. Zero fields get defaults from fill().
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the
	// circuit (default 5, above one read's RemoteRetry budget, so a
	// single refused read does not trip it alone).
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe (default 500ms).
	Cooldown time.Duration
	// Probes is the consecutive half-open successes required to close
	// the circuit (default 1).
	Probes int
	// Now is the clock (default time.Now); tests inject a fake to step
	// through cooldowns without sleeping.
	Now func() time.Time
}

func (c *BreakerConfig) fill() {
	if c.Threshold < 1 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.Probes < 1 {
		c.Probes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// BreakerStats is a snapshot of a breaker's counters.
type BreakerStats struct {
	State BreakerState
	// Opens counts trips (closed→open and half-open→open).
	Opens int64
	// ShortCircuits counts requests refused while open.
	ShortCircuits int64
	// Successes and Failures count recorded request outcomes.
	Successes, Failures int64
	// Transitions counts every state change.
	Transitions int64
}

// Breaker is a per-backend circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while closed
	okays    int // consecutive successes while half-open
	probing  bool
	openedAt time.Time
	stats    BreakerStats

	// onTransition (optional) observes state changes; called outside
	// the breaker's lock, in the goroutine that caused the change.
	onTransition func(from, to BreakerState)
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.fill()
	return &Breaker{cfg: cfg}
}

// OnTransition registers fn to observe every state change (nil
// unregisters). fn runs outside the breaker's lock and must not call
// back into mutating breaker methods.
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) {
	b.mu.Lock()
	b.onTransition = fn
	b.mu.Unlock()
}

// State returns the current state, advancing open→half-open when the
// cooldown has elapsed (so observers see the probe-eligible state).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	st := b.state
	if st == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		st = BreakerHalfOpen
	}
	b.mu.Unlock()
	return st
}

// Stats snapshots the counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	s := b.stats
	s.State = b.state
	b.mu.Unlock()
	return s
}

// Allow reports whether a request may proceed. While open it refuses
// (counting a short-circuit) until the cooldown elapses; then it
// admits exactly one probe at a time. Every Allow()==true must be
// paired with a Success or Failure call (or Cancelled, if the outcome
// says nothing about the backend).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var hook func(from, to BreakerState)
	var from, to BreakerState
	defer func() {
		b.mu.Unlock()
		if hook != nil {
			hook(from, to)
		}
	}()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.stats.ShortCircuits++
			return false
		}
		from, to = b.state, BreakerHalfOpen
		b.state = BreakerHalfOpen
		b.stats.Transitions++
		b.okays = 0
		b.probing = true
		hook = b.onTransition
		return true
	default: // half-open
		if b.probing {
			b.stats.ShortCircuits++
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a completed request.
func (b *Breaker) Success() { b.record(true) }

// Failure records a failed request that indicates backend trouble.
func (b *Breaker) Failure() { b.record(false) }

// Cancelled releases a half-open probe slot without judging the
// backend (the caller's context was cancelled mid-request).
func (b *Breaker) Cancelled() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *Breaker) record(ok bool) {
	b.mu.Lock()
	var hook func(from, to BreakerState)
	var from, to BreakerState
	if ok {
		b.stats.Successes++
	} else {
		b.stats.Failures++
	}
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
		} else {
			b.fails++
			if b.fails >= b.cfg.Threshold {
				from, to = b.state, BreakerOpen
				b.state = BreakerOpen
				b.openedAt = b.cfg.Now()
				b.stats.Opens++
				b.stats.Transitions++
				hook = b.onTransition
			}
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.okays++
			if b.okays >= b.cfg.Probes {
				from, to = b.state, BreakerClosed
				b.state = BreakerClosed
				b.fails = 0
				b.stats.Transitions++
				hook = b.onTransition
			}
		} else {
			from, to = b.state, BreakerOpen
			b.state = BreakerOpen
			b.openedAt = b.cfg.Now()
			b.stats.Opens++
			b.stats.Transitions++
			hook = b.onTransition
		}
	case BreakerOpen:
		// A request admitted before the trip finishing late; the
		// consecutive-failure counters only matter closed/half-open.
	}
	b.mu.Unlock()
	if hook != nil {
		hook(from, to)
	}
}
