package iosim

// Chaos extends the priced-device model from "how long does healthy
// I/O take" to "what does unhealthy I/O do". The loopback remote
// object server consults one Chaos per request and applies the fault
// it dictates: drop the connection, stall before serving, truncate the
// body mid-flight, answer 503, flip a byte of the payload, or — while
// partitioned — refuse everything. Each verdict is a Die keyed by the
// request — its method, object and byte range — and that key's own
// ordinal, so a request draws the same fault whenever it comes: how the
// compute thread's GETs and the writer's PUTs interleave moves no
// verdict. Only the partition flap schedule counts requests globally.

import (
	"hash/fnv"
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
	// the connection (GET only).
	FaultTruncate
	// FaultError answers 503 Service Unavailable.
	FaultError
	// FaultCorrupt flips one byte of the response body (GET only —
	// stored objects are never mutated). The out-of-core manager's
	// checksum catches it.
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
// corrupt) against one uniform draw, so they must sum to <= 1. Only a
// GET draws truncate and corrupt: on any other request their share of
// the draw serves it normally.
type ChaosConfig struct {
	// Seed fixes the dice (same seed + same per-request histories =
	// same faults).
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
	// MaxFaults caps the injected faults of each kind on each method
	// (partitions excluded); 0 means unlimited. Lets a soak guarantee
	// forward progress regardless of the probabilities.
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

// Chaos decides one fault per request. Safe for concurrent use; below
// the caps a request's verdict depends only on the seed and the
// requests with the same key before it.
type Chaos struct {
	mu       sync.Mutex
	cfg      ChaosConfig
	manual   bool // manual partition toggle (SetPartition)
	disabled bool
	ords     map[string]uint64     // per request key, the requests seen so far
	faults   map[methodFault]int64 // per method and kind, the faults injected
	stats    ChaosStats
}

type methodFault struct {
	method string
	fault  Fault
}

// NewChaos builds a chaos policy from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.Stall <= 0 {
		cfg.Stall = 5 * time.Millisecond
	}
	return &Chaos{cfg: cfg, ords: make(map[string]uint64), faults: make(map[methodFault]int64)}
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

// Next decides the fault for one request — method on object, span
// naming its byte range as the request states it ("" for the whole
// object) — returning the stall duration alongside (meaningful for
// FaultStall). FaultDrop doubles as the partition verdict.
func (c *Chaos) Next(method, object, span string) (Fault, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	key := method + " " + object + " " + span
	ord := c.ords[key]
	c.ords[key]++
	if c.disabled {
		return FaultNone, 0
	}
	if c.manual || c.scheduledPartition() {
		c.stats.Partitioned++
		return FaultDrop, 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	r := float64(Die(c.cfg.Seed, h.Sum64(), ord, 0)>>11) / (1 << 53)
	for _, fp := range []struct {
		f Fault
		p float64
		n *int64
	}{
		{FaultDrop, c.cfg.DropProb, &c.stats.Drops},
		{FaultStall, c.cfg.StallProb, &c.stats.Stalls},
		{FaultTruncate, c.cfg.TruncateProb, &c.stats.Truncations},
		{FaultError, c.cfg.ErrorProb, &c.stats.Errors},
		{FaultCorrupt, c.cfg.CorruptProb, &c.stats.Corruptions},
	} {
		if r >= fp.p {
			r -= fp.p
			continue
		}
		kind := methodFault{method, fp.f}
		if method != "GET" && (fp.f == FaultTruncate || fp.f == FaultCorrupt) ||
			c.cfg.MaxFaults > 0 && c.faults[kind] >= c.cfg.MaxFaults {
			return FaultNone, 0
		}
		c.faults[kind]++
		*fp.n++
		return fp.f, c.cfg.Stall
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

// Die is the draw of die kind on the ord-th event of key under seed: a
// pure function of its arguments. An injector that keys its dice by
// what an event is (a vector, a request) and counts ordinals per key
// therefore draws the same faults for the same per-key histories,
// however the keys' events interleave.
func Die(seed int64, key, ord, kind uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(splitmix64(uint64(seed))^key)^ord) ^ kind)
}

// splitmix64 is SplitMix64's output function, a bijective mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
