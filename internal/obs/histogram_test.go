package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// The bucket convention is cumulative upper bounds: a value lands in
	// the first bucket whose bound is >= v. A value exactly on a bound
	// belongs to that bound's bucket (le semantics), not the next one.
	cases := []struct {
		v    float64
		want int // bucket index (3 = overflow)
	}{
		{0.5, 0}, {1, 0}, {1.0000001, 1}, {2, 1}, {3, 2}, {5, 2}, {5.1, 3}, {100, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	counts := make([]int64, 4)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	want := []int64{2, 2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d: got %d events, want %d (counts=%v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count=%d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 3 + 5 + 5.1 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("Sum=%v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	// 10 observations uniformly in bucket (10, 20]: quantiles interpolate
	// linearly across the bucket's width.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	if q := h.Quantile(0.5); math.Abs(q-15) > 1e-9 {
		t.Errorf("p50 over one mid bucket: got %v, want 15 (midpoint interpolation)", q)
	}
	if q := h.Quantile(1.0); math.Abs(q-20) > 1e-9 {
		t.Errorf("p100: got %v, want upper bound 20", q)
	}

	// Split across two buckets: 5 in (0,10], 5 in (10,20]. The median
	// rank sits exactly at the first bucket's upper edge.
	h2 := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 5; i++ {
		h2.Observe(5)
		h2.Observe(15)
	}
	if q := h2.Quantile(0.5); math.Abs(q-10) > 1e-9 {
		t.Errorf("p50 at bucket edge: got %v, want 10", q)
	}
	// p75 = rank 7.5 → 2.5 of 5 into the second bucket → 10 + 0.5*10.
	if q := h2.Quantile(0.75); math.Abs(q-15) > 1e-9 {
		t.Errorf("p75: got %v, want 15", q)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50: got %v, want 0", q)
	}
	// Overflow observations clamp to the top finite bound rather than
	// inventing an unbounded estimate.
	h.Observe(1e9)
	if q := h.Quantile(0.99); q != 2 {
		t.Errorf("overflow-only p99: got %v, want top bound 2", q)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram(nil)
	if got, want := len(h.bounds), len(LatencyBuckets); got != want {
		t.Fatalf("default bounds: got %d, want %d", got, want)
	}
	// LatencyBuckets must be strictly increasing or the bucket scan and
	// the interpolation both break silently.
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Fatalf("LatencyBuckets not increasing at %d: %v <= %v", i, LatencyBuckets[i], LatencyBuckets[i-1])
		}
	}
}

func TestHistogramSnapshotJSON(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(99) // overflow bucket — serialised with the "+Inf" bound
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"+Inf"`) {
		t.Errorf("snapshot JSON missing +Inf bucket: %s", b)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	h := NewHistogram(nil)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); n != 0 {
		t.Errorf("Observe allocates %v per call, want 0", n)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// The entire disabled fast path: nil instruments must be callable.
	var c *Counter
	var g *Gauge
	var f *FloatGauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(5)
	c.Set(7)
	g.Set(3)
	g.Add(1)
	f.Set(1.5)
	h.Observe(0.1)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || f.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.FloatGauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	r.SetInfo("k", "v")
	r.AddPublisher("", func() {})
	if s := r.Snapshot(); s == nil {
		t.Error("nil registry Snapshot must return an empty snapshot")
	}
}
