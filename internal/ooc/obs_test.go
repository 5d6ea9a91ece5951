package ooc

import (
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/obs"
)

// asyncObsManager builds an instrumented async manager over a MemStore,
// traced under a root span whose collector it returns.
func asyncObsManager(t *testing.T, n, vecLen, slots int) (*Manager, *obs.Registry, *obs.SpanCollector) {
	t.Helper()
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: NewLRU(n), ReadSkipping: true,
		Store: NewMemStore(n, vecLen),
		Async: true, IOWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Instrument(reg)
	col := obs.NewSpanCollector(4)
	m.SetSpan(col.StartTrace("test"))
	return m, reg, col
}

// TestStatsConcurrentSnapshot is the torn-read regression test: the
// debug endpoint samples Stats/PipelineStats/PrefetchStats from its own
// goroutine while the compute thread runs the manager. Before the stats
// mutex, this was a data race on the counter structs (run with -race).
func TestStatsConcurrentSnapshot(t *testing.T) {
	const n, vecLen, slots = 32, 64, 4
	m, reg, _ := asyncObsManager(t, n, vecLen, slots)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := m.Stats()
				if st.Hits+st.Misses > st.Requests {
					t.Error("torn stats snapshot: hits+misses exceeds requests")
					return
				}
				_ = m.PipelineStats()
				_ = m.PrefetchStats()
				_ = m.Resident(0)
				// A registry snapshot drives the publisher through the
				// same getters, as /debug/vars does.
				_ = reg.Snapshot()
			}
		}
	}()

	for round := 0; round < 50; round++ {
		for vi := 0; vi < n; vi++ {
			_ = m.Prefetch((vi + 3) % n)
			buf, err := m.Vector(vi, vi%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = float64(vi)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentMirrorsCounters checks that a registry snapshot
// reproduces the manager's own counters and that native instruments
// (fault-in histogram) and the attached span saw the workload.
func TestInstrumentMirrorsCounters(t *testing.T) {
	const n, vecLen, slots = 16, 32, 4
	m, reg, col := asyncObsManager(t, n, vecLen, slots)
	root := m.span
	for vi := 0; vi < n; vi++ {
		if _, err := m.Vector(vi, false); err != nil {
			t.Fatal(err)
		}
		_ = m.Prefetch((vi + 1) % n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	st := m.Stats()
	if got := s.Counters["ooc.requests"]; got != st.Requests {
		t.Errorf("ooc.requests=%d, Stats().Requests=%d", got, st.Requests)
	}
	if got := s.Counters["ooc.misses"]; got != st.Misses {
		t.Errorf("ooc.misses=%d, Stats().Misses=%d", got, st.Misses)
	}
	ps := m.PipelineStats()
	if got := s.Counters["pipe.fetches_queued"]; got != ps.FetchesQueued {
		t.Errorf("pipe.fetches_queued=%d, want %d", got, ps.FetchesQueued)
	}
	if s.Info["ooc.strategy"] != "LRU" {
		t.Errorf("ooc.strategy info = %q, want LRU", s.Info["ooc.strategy"])
	}
	h, ok := s.Histograms["ooc.fault_in_seconds"]
	if !ok || h.Count != st.Misses {
		t.Errorf("fault_in histogram count=%d, want %d misses", h.Count, st.Misses)
	}
	view, ok := col.Trace(root.TraceID().String())
	if !ok {
		t.Fatal("root trace missing from the collector")
	}
	// The workload must have produced fault-in and prefetch spans on the
	// compute lane and at least one background fetch span on a worker's.
	names := map[string]int{}
	for _, s := range view.Spans {
		lane := int64(0)
		for _, a := range s.Attrs {
			if a.Key == obs.LaneAttr {
				lane = a.Int
			}
		}
		if strings.HasPrefix(s.Name, "pipe.") != (lane > 0) {
			t.Errorf("%s span on lane %d", s.Name, lane)
		}
		names[s.Name]++
	}
	if names["ooc.fault_in"] == 0 || names["ooc.prefetch"] == 0 || names["pipe.fetch"] == 0 {
		t.Errorf("missing spans: %v", names)
	}
}

// TestInstrumentIdempotent ensures double instrumentation is ignored
// and an uninstrumented manager works with all-nil instruments.
func TestInstrumentIdempotent(t *testing.T) {
	const n, vecLen = 8, 16
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: 4,
		Strategy: NewLRU(n), Store: NewMemStore(n, vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uninstrumented: zero-value obs, must be no-ops.
	if _, err := m.Vector(0, true); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Instrument(reg)
	m.Instrument(obs.NewRegistry()) // ignored
	if _, err := m.Vector(1, true); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["ooc.requests"]; got != 2 {
		t.Errorf("ooc.requests=%d, want 2 (mirrored from Stats)", got)
	}
}
