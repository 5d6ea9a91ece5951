package ooc

import (
	"context"
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/obs"
)

// obsManager builds an instrumented manager over a MemStore,
// traced under a root span whose collector it returns.
func obsManager(t *testing.T, n, vecLen, slots int) (*Manager, *obs.Registry, *obs.SpanCollector) {
	t.Helper()
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: NewLRU(n), ReadSkipping: true,
		Store: NewMemStore(n, vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Instrument(reg)
	col := obs.NewSpanCollector(4)
	m.SetContext(obs.ContextWithSpan(context.Background(), col.StartTrace("test")))
	return m, reg, col
}

// TestStatsConcurrentSnapshot is the torn-read regression test: the
// debug endpoint samples Stats/PipelineStats/ResizeStats from its own
// goroutine while the compute thread runs the manager. Before the stats
// mutex, this was a data race on the counter structs (run with -race).
func TestStatsConcurrentSnapshot(t *testing.T) {
	const n, vecLen, slots = 32, 64, 4
	m, reg, _ := obsManager(t, n, vecLen, slots)

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
				_ = m.ResizeStats()
				_ = m.Resident(0)
				// A registry snapshot drives the publisher through the
				// same getters, as /debug/vars does.
				_ = reg.Snapshot()
			}
		}
	}()

	for round := 0; round < 50; round++ {
		for vi := 0; vi < n; vi++ {
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
	m, reg, col := obsManager(t, n, vecLen, slots)
	root := m.span
	for vi := 0; vi < n; vi++ {
		if _, err := m.Vector(vi, true); err != nil {
			t.Fatal(err)
		}
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
	if got := s.Counters["pipe.writes_queued"]; got != ps.WritesQueued || got == 0 {
		t.Errorf("pipe.writes_queued=%d, want %d (> 0)", got, ps.WritesQueued)
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
	// The workload must have produced fault-in and eviction spans on the
	// compute lane and at least one write-back span on the writer's.
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
	if names["ooc.fault_in"] == 0 || names["ooc.evict"] == 0 || names["pipe.write_back"] == 0 {
		t.Errorf("missing spans: %v", names)
	}
}

// TestInstrumentIdempotent ensures double instrumentation is ignored
// and a count an uninstrumented manager made carries over into the
// registry it is then bound to.
func TestInstrumentIdempotent(t *testing.T) {
	const n, vecLen = 8, 16
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: 4,
		Strategy: NewLRU(n), Store: NewMemStore(n, vecLen),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uninstrumented: the registry-only instruments are nil no-ops.
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
		t.Errorf("ooc.requests=%d, want 2 (one before Instrument, one after)", got)
	}
}
