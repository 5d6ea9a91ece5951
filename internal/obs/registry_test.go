package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") || r.FloatGauge("f") != r.FloatGauge("f") {
		t.Error("same name must return the same gauge")
	}
	if r.Histogram("h", nil) != r.Histogram("h", []float64{1}) {
		t.Error("same name must return the same histogram (first bounds win)")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	g := &Gauge{}
	g.Set(5)
	g.Add(3) // 8
	g.Add(-6)
	if g.Value() != 2 {
		t.Errorf("Value=%d, want 2", g.Value())
	}
	if g.Max() != 8 {
		t.Errorf("Max=%d, want 8", g.Max())
	}
}

func TestSnapshotAndPublishers(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("kernel", "dna4")
	r.Counter("ooc.hits").Add(10)
	r.Gauge("pipe.queue_depth").Set(3)
	r.FloatGauge("search.lnl").Set(-1234.5)
	r.Histogram("plf.newview_seconds", nil).Observe(0.002)

	published := 0
	mirror := r.Counter("ooc.mirrored")
	r.AddPublisher("ooc.mirrored", func() { published++; mirror.Set(int64(published)) })

	s := r.Snapshot()
	if published != 1 {
		t.Errorf("publisher ran %d times, want 1", published)
	}
	if s.Counters["ooc.hits"] != 10 || s.Counters["ooc.mirrored"] != 1 {
		t.Errorf("counters: %v", s.Counters)
	}
	if s.Gauges["pipe.queue_depth"].Value != 3 {
		t.Errorf("gauges: %v", s.Gauges)
	}
	if s.FloatGauges["search.lnl"] != -1234.5 {
		t.Errorf("float gauges: %v", s.FloatGauges)
	}
	if s.Histograms["plf.newview_seconds"].Count != 1 {
		t.Errorf("histograms: %v", s.Histograms)
	}
	if s.Info["kernel"] != "dna4" {
		t.Errorf("info: %v", s.Info)
	}
}

// TestPublisherReplaceAndRemove pins a publisher's identity to its
// prefix: re-registering runs the earlier publisher one last time and
// replaces it, and Remove takes the publishers and names under a
// prefix — and nothing beside them — out of the registry.
func TestPublisherReplaceAndRemove(t *testing.T) {
	r := NewRegistry()
	ran := map[string]int{}
	for _, who := range []string{"stale", "live"} {
		r.AddPublisher("svc.session.a.tier.", func() { ran[who]++ })
	}
	r.AddPublisher("svc.session.a.", func() { ran["a"]++ })
	r.AddPublisher("svc.session.ab.", func() { ran["ab"]++ })
	r.Counter("svc.session.a.tier.hits").Inc()
	r.Gauge("svc.session.a.slots").Set(3)
	r.Histogram("svc.session.a.tier.seconds", nil).Observe(1)
	r.SetInfo("svc.session.a.tier.breaker", "enabled")
	r.FloatGauge("svc.session.ab.lnl").Set(-1)
	if ran["stale"] != 1 || ran["live"] != 0 {
		t.Fatalf("a replaced publisher must run once, at its replacement: %v", ran)
	}
	r.Snapshot()
	if ran["stale"] != 1 || ran["live"] != 1 {
		t.Fatalf("same-prefix publisher not replaced: %v", ran)
	}

	r.Remove("svc.session.a.")
	s := r.Snapshot()
	if ran["live"] != 1 || ran["a"] != 1 || ran["ab"] != 2 {
		t.Errorf("publisher runs after Remove: %v", ran)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms) + len(s.Info); n != 0 {
		t.Errorf("Remove left %d names behind: %+v", n, s)
	}
	if _, ok := s.FloatGauges["svc.session.ab.lnl"]; !ok {
		t.Error("Remove took a neighbour's instrument")
	}
}

func TestWriteJSONFiniteAndValid(t *testing.T) {
	r := NewRegistry()
	r.FloatGauge("search.lnl").Set(math.Inf(-1)) // pre-first-evaluation state
	r.Histogram("plf.newview_seconds", nil).Observe(1e9)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	// Snapshot from one goroutine while others hammer instruments —
	// the pattern the debug endpoint creates. Run with -race.
	r := NewRegistry()
	c := r.Counter("ooc.hits")
	h := r.Histogram("plf.newview_seconds", nil)
	g := r.Gauge("pipe.queue_depth")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
					g.Add(1)
					g.Add(-1)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		if s.Counters["ooc.hits"] < 0 {
			t.Fatal("negative counter")
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteReport(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("kernel", "dna4")
	r.Counter("plf.newviews").Add(42)
	r.Counter("ooc.hits").Add(7)
	r.Gauge("pipe.queue_depth").Set(2)
	r.FloatGauge("search.lnl").Set(-99.5)
	r.Histogram("ooc.fault_in_seconds", nil).Observe(0.0005)
	r.Counter("misc.thing").Inc() // unknown prefix → trailing section

	var buf bytes.Buffer
	WriteReport(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"Run info: kernel=dna4",
		"[likelihood engine]", "newviews", "42",
		"[out-of-core manager]", "hits",
		"[async I/O pipeline]", "queue_depth",
		"[tree search]", "lnl",
		"[misc]",
		"fault_in_seconds", "p50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Known layers must appear in narrative order.
	idx := func(s string) int { return strings.Index(out, s) }
	if !(idx("[likelihood engine]") < idx("[out-of-core manager]") &&
		idx("[out-of-core manager]") < idx("[async I/O pipeline]") &&
		idx("[async I/O pipeline]") < idx("[tree search]")) {
		t.Errorf("sections out of order:\n%s", out)
	}
}
