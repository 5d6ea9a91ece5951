package obs

import (
	"encoding/json"
	"math"
	"sync/atomic"
)

// LatencyBuckets is the default bucket layout for latency histograms:
// roughly 1-2-5 steps from 1µs to 5s, in seconds. Out-of-core fault-ins
// on fast NVMe land around 10-100µs, spinning disks around 1-10ms, and
// recovery recomputation storms can push individual operations into
// whole seconds — the layout keeps ~3 buckets per decade across that
// entire range so p50/p90/p99 interpolation stays meaningful.
var LatencyBuckets = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2, 5,
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bucket i counts observations v with v <= bounds[i] (and v >
// bounds[i-1]); one extra overflow bucket counts v > bounds[last] —
// Prometheus' cumulative-`le` convention made explicit per bucket.
// A nil *Histogram is a no-op on every method.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (a copy is taken). Nil or empty bounds select LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the bucket containing the target rank: the
// bucket's observations are assumed uniform between its lower and upper
// bound. Values in the overflow bucket are reported as the top bound
// (the histogram cannot know how far beyond it they reached). Returns 0
// for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: unbounded above, clamp to the top bound.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCount is one bucket of a histogram snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf for the
	// overflow bucket.
	UpperBound float64 `json:"le"`
	// Count is the number of observations in this bucket alone (not
	// cumulative).
	Count int64 `json:"count"`
}

// MarshalJSON emits the overflow bucket's infinite bound as the string
// "+Inf" (encoding/json rejects non-finite numbers).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	type finite struct {
		UpperBound float64 `json:"le"`
		Count      int64   `json:"count"`
	}
	if math.IsInf(b.UpperBound, 1) {
		return json.Marshal(struct {
			UpperBound string `json:"le"`
			Count      int64  `json:"count"`
		}{"+Inf", b.Count})
	}
	return json.Marshal(finite{b.UpperBound, b.Count})
}

// HistogramSnapshot is a point-in-time copy with precomputed quantiles.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state. Non-atomic across buckets (a
// concurrent Observe may be half-landed) — quantiles are estimates
// either way, and every individual load is atomic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	// Every bucket, empty or not: an exposition must carry each bound
	// on every scrape for a rule over one of them to see a series.
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: h.counts[i].Load()})
	}
	return s
}
