package obs

import (
	"testing"
	"time"
)

// The disabled-path cost model: an uninstrumented layer holds nil
// instruments, so the hot path pays one nil check per call site and
// never reads the clock. These benchmarks put numbers on that claim —
// the end-to-end bound is measured by experiments.RunObsOverhead
// (obs-off vs the instrumented build, bit-identical lnL enforced).

// kernelStandIn is a small compute unit standing in for per-site kernel
// work, so the relative overhead numbers resemble a real call site
// rather than an empty loop.
func kernelStandIn(buf []float64) float64 {
	s := 0.0
	for i := range buf {
		buf[i] = buf[i]*1.0000001 + 1e-9
		s += buf[i]
	}
	return s
}

func benchHotPath(b *testing.B, c *Counter, h *Histogram, sp *Span) {
	buf := make([]float64, 256)
	for i := range buf {
		buf[i] = float64(i)
	}
	sink := 0.0
	on := sp != nil || h != nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var start time.Time
		if on {
			start = time.Now()
		}
		sink += kernelStandIn(buf)
		c.Inc()
		if on {
			dur := time.Since(start)
			h.Observe(dur.Seconds())
			sp.EmitChild("bench.op", start, dur)
		}
	}
	if sink == 12345 {
		b.Fatal("unreachable, defeats dead-code elimination")
	}
}

// BenchmarkHotPathBare is the baseline: no obs code at all.
func BenchmarkHotPathBare(b *testing.B) {
	buf := make([]float64, 256)
	for i := range buf {
		buf[i] = float64(i)
	}
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += kernelStandIn(buf)
	}
	if sink == 12345 {
		b.Fatal("unreachable")
	}
}

// BenchmarkHotPathDisabled is the instrumented call site with nil
// instruments — what every run without -http/-stats pays. Compare
// against BenchmarkHotPathBare: the delta is the disabled overhead.
func BenchmarkHotPathDisabled(b *testing.B) {
	benchHotPath(b, nil, nil, nil)
}

// BenchmarkHotPathEnabled is the fully instrumented call site:
// counter + latency histogram + child span per iteration.
func BenchmarkHotPathEnabled(b *testing.B) {
	r := NewRegistry()
	root := NewSpanCollector(4).StartTrace("bench")
	benchHotPath(b, r.Counter("bench.c"), r.Histogram("bench.h", nil), root)
}

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := &Counter{}
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

// BenchmarkSpanEmitChild is one already-finished child span landing in
// a trace held at its cap — the steady state of a long traced run.
func BenchmarkSpanEmitChild(b *testing.B) {
	root := NewSpanCollector(4).StartTrace("bench")
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.EmitChild("bench.op", start, time.Microsecond, Attr{Key: LaneAttr, Int: 1})
	}
}
