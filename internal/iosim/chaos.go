package iosim

// Chaos extends the priced-device model from "how long does healthy
// I/O take" to "what does unhealthy I/O do". The loopback remote
// object server consults one Chaos per request and applies the fault
// it dictates: drop the connection, stall before serving, truncate the
// body mid-flight, answer 503, flip a byte of the payload, or — while
// partitioned — refuse everything. Decisions come from a seeded PRNG
// plus a request-ordinal flap schedule, so a chaos soak replays the
// same fault mix for a given seed without any wall-clock coupling.

import (
	"math/rand"
	"sync"
	"time"
)

// Fault is one injected network failure mode.
type Fault int

const (
	// FaultNone serves the request normally.
	FaultNone Fault = iota
	// FaultDrop closes the connection before any response bytes.
	FaultDrop
	// FaultStall sleeps before serving (to trip client deadlines).
	FaultStall
	// FaultTruncate sends roughly half the response body, then drops
	// the connection (GET only; write paths degrade it to FaultDrop).
	FaultTruncate
	// FaultError answers 503 Service Unavailable.
	FaultError
	// FaultCorrupt flips one byte of the response body (GET only —
	// stored objects are never mutated; write paths degrade it to
	// FaultDrop).
	FaultCorrupt
)

// String labels the fault for logs and test output.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultTruncate:
		return "truncate"
	case FaultError:
		return "5xx"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// ChaosConfig parameterises a Chaos policy. Probabilities are per
// request and evaluated in order (drop, stall, truncate, error,
// corrupt) against one uniform draw, so they must sum to <= 1.
type ChaosConfig struct {
	// Seed fixes the PRNG (same seed + same request order = same
	// fault sequence).
	Seed int64
	// DropProb, StallProb, TruncateProb, ErrorProb and CorruptProb
	// weight the fault kinds.
	DropProb, StallProb, TruncateProb, ErrorProb, CorruptProb float64
	// Stall is how long a FaultStall sleeps (default 5ms).
	Stall time.Duration
	// PartitionEvery/PartitionFor define a request-ordinal flap
	// schedule: after every PartitionEvery healthy-eligible requests,
	// the next PartitionFor requests are dropped wholesale (a full
	// partition), repeating. Zero disables the schedule; SetPartition
	// still forces partitions manually either way.
	PartitionEvery, PartitionFor int
	// MaxFaults caps the total number of injected faults (partitions
	// excluded); 0 means unlimited. Lets a soak guarantee forward
	// progress regardless of the probabilities.
	MaxFaults int64
}

// ChaosStats counts what was injected.
type ChaosStats struct {
	Requests    int64
	Drops       int64
	Stalls      int64
	Truncations int64
	Errors      int64
	Corruptions int64
	// Partitioned counts requests refused while a partition (manual or
	// scheduled) was in effect.
	Partitioned int64
}

// Chaos decides one fault per request. Safe for concurrent use; the
// decision sequence is deterministic in request order for a fixed
// seed.
type Chaos struct {
	mu       sync.Mutex
	cfg      ChaosConfig
	rng      *rand.Rand
	manual   bool // manual partition toggle (SetPartition)
	disabled bool
	faults   int64
	stats    ChaosStats
}

// NewChaos builds a chaos policy from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.Stall <= 0 {
		cfg.Stall = 5 * time.Millisecond
	}
	return &Chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetPartition forces (or lifts) a full partition: while set, every
// request is refused regardless of the probabilities or schedule.
func (c *Chaos) SetPartition(on bool) {
	c.mu.Lock()
	c.manual = on
	c.mu.Unlock()
}

// Partitioned reports whether a manual partition is in force.
func (c *Chaos) Partitioned() bool {
	c.mu.Lock()
	on := c.manual
	c.mu.Unlock()
	return on
}

// Disable pauses injection: all subsequent requests are served
// normally (setup traffic, or the soak's recovery phase). It also
// lifts a manual partition. Enable re-arms.
func (c *Chaos) Disable() {
	c.mu.Lock()
	c.disabled = true
	c.manual = false
	c.mu.Unlock()
}

// Enable (re-)arms injection after a Disable.
func (c *Chaos) Enable() {
	c.mu.Lock()
	c.disabled = false
	c.mu.Unlock()
}

// Stats snapshots the injection counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// Next decides the fault for one request, returning the stall duration
// alongside (meaningful for FaultStall). FaultDrop doubles as the
// partition verdict.
func (c *Chaos) Next() (Fault, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	if c.disabled {
		return FaultNone, 0
	}
	if c.manual || c.scheduledPartition() {
		c.stats.Partitioned++
		return FaultDrop, 0
	}
	if c.cfg.MaxFaults > 0 && c.faults >= c.cfg.MaxFaults {
		return FaultNone, 0
	}
	r := c.rng.Float64()
	for _, fp := range []struct {
		f Fault
		p float64
	}{
		{FaultDrop, c.cfg.DropProb},
		{FaultStall, c.cfg.StallProb},
		{FaultTruncate, c.cfg.TruncateProb},
		{FaultError, c.cfg.ErrorProb},
		{FaultCorrupt, c.cfg.CorruptProb},
	} {
		if r < fp.p {
			c.faults++
			switch fp.f {
			case FaultDrop:
				c.stats.Drops++
			case FaultStall:
				c.stats.Stalls++
			case FaultTruncate:
				c.stats.Truncations++
			case FaultError:
				c.stats.Errors++
			case FaultCorrupt:
				c.stats.Corruptions++
			}
			return fp.f, c.cfg.Stall
		}
		r -= fp.p
	}
	return FaultNone, 0
}

// scheduledPartition evaluates the request-ordinal flap schedule.
// Called with mu held; the ordinal is the 1-based count of requests
// seen so far (this one included).
func (c *Chaos) scheduledPartition() bool {
	e, f := c.cfg.PartitionEvery, c.cfg.PartitionFor
	if e <= 0 || f <= 0 {
		return false
	}
	phase := (c.stats.Requests - 1) % int64(e+f)
	return phase >= int64(e)
}
