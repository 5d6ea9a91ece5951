package ooc

// Observability wiring for the out-of-core manager, its write-back
// pipeline and the tiered store. Every count such a layer keeps is one
// obs.Counter (a level, one obs.Gauge), allocated when the layer is
// built, so an uninstrumented layer still counts, and its Stats reads
// those instruments. Instrument and InstrumentTieredStore bind them to
// a registry (bindCounter); nothing is copied at scrape time.
//
// An instrumented manager also feeds instruments only the registry
// holds: fault-in and write-back latencies (histograms), evictions per
// strategy, the slot count and the stall totals in seconds. An
// uninstrumented one holds nil for them, so each such call on the hot
// path degrades to a nil-check no-op and no clock is read.
// Vector-lifecycle events are spans under whatever span SetContext's
// context carries (spanEvent below, the writer's pipe.write_back),
// independent of the registry.
//
// Bind a layer before its first operation: the rebinding is not
// synchronised with the layer's own goroutines (the manager's writer
// picks its instruments up through the happens-before edge of the first
// request enqueue).

import (
	"fmt"
	"strings"
	"time"

	"oocphylo/internal/obs"
)

// counts are the manager's counters, the one source of Stats,
// PipelineStats and ResizeStats. They move only under Manager.mu.
type counts struct {
	requests, hits, misses, reads, skippedReads    *obs.Counter
	writes, skippedWrites, bytesRead, bytesWritten *obs.Counter
	writesQueued, corruptReads                     *obs.Counter
	grows, shrinks, resizeEvictions                *obs.Counter
}

// namedCounter is a layer's counter and the name it is exported under.
type namedCounter struct {
	name string
	c    **obs.Counter
}

// counters lists the manager's counters, its pipeline's among them.
func (m *Manager) counters() []namedCounter {
	c, p := &m.c, m.pipe
	return []namedCounter{
		{"ooc.requests", &c.requests}, {"ooc.hits", &c.hits}, {"ooc.misses", &c.misses},
		{"ooc.reads", &c.reads}, {"ooc.skipped_reads", &c.skippedReads},
		{"ooc.writes", &c.writes}, {"ooc.skipped_writes", &c.skippedWrites},
		{"ooc.bytes_read", &c.bytesRead}, {"ooc.bytes_written", &c.bytesWritten},
		{"ooc.corrupt_reads", &c.corruptReads}, {"ooc.resize_grows", &c.grows},
		{"ooc.resize_shrinks", &c.shrinks}, {"ooc.resize_evictions", &c.resizeEvictions},
		{"pipe.writes_queued", &c.writesQueued},
		{"pipe.write_queue_hits", &p.wqHits}, {"pipe.overlapped_bytes", &p.overlapped},
	}
}

// bindCounter is the binding rule of every out-of-core count: reg's
// counter named name takes over *own's count, and the layer counts on
// it from then on. A layer bound under a name an earlier layer used (a
// revived session's new tier) thus carries on from that layer's total.
func bindCounter(reg *obs.Registry, name string, own **obs.Counter) {
	c := reg.Counter(name)
	c.Add((*own).Value())
	*own = c
}

// bindGauge binds a level by the same rule: reg's gauge named name
// takes over *own's level and high-water mark.
func bindGauge(reg *obs.Registry, name string, own **obs.Gauge) {
	g := reg.Gauge(name)
	g.Set((*own).Max())
	g.Set((*own).Value())
	*own = g
}

// managerObs holds the instruments only a registry gives the manager.
// The zero value (all nil, on=false) is the uninstrumented state.
type managerObs struct {
	// on gates the time.Now() calls the latency histograms need.
	on bool
	// faultIn observes the full demand-miss path: slot selection,
	// eviction and the store read (or its skip).
	faultIn *obs.Histogram
	// evictions counts evictions under the configured strategy (the
	// instrument name carries the strategy, e.g. "ooc.evictions_lru").
	evictions *obs.Counter
	// slots tracks the live slot-pool size; Resize moves it at runtime.
	slots *obs.Gauge
	// stall and bufWait follow PipelineStats' StallTime and BufferWait
	// in seconds, set where those grow.
	stall, bufWait *obs.FloatGauge
}

// Instrument binds the manager's counters to reg (bindCounter: a count
// made before the call carries over into the registry) and attaches the
// registry-only instruments; nil is a no-op. Call it before the first
// Vector/Flush operation and at most once; later calls are ignored.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mx.on || reg == nil {
		return
	}
	m.mx = managerObs{
		on:        true,
		faultIn:   reg.Histogram("ooc.fault_in_seconds", nil),
		evictions: reg.Counter("ooc.evictions_" + strings.ToLower(m.cfg.Strategy.Name())),
		slots:     reg.Gauge("ooc.slots"),
		stall:     reg.FloatGauge("pipe.stall_seconds"),
		bufWait:   reg.FloatGauge("pipe.buffer_wait_seconds"),
	}
	m.mx.slots.Set(int64(m.nslots))
	m.mx.stall.Set(m.stallTime.Seconds())
	m.mx.bufWait.Set(m.bufferWait.Seconds())
	for _, c := range m.counters() {
		bindCounter(reg, c.name, c.c)
	}
	p := m.pipe
	bindGauge(reg, "pipe.queue_depth", &p.qdepth)
	p.on = true
	p.writeLat = reg.Histogram("pipe.write_back_seconds", nil)
	p.depthMax = reg.Counter("pipe.queue_depth_max")
	p.depthMax.Set(p.qdepth.Max())
	reg.SetInfo("ooc.strategy", m.cfg.Strategy.Name())
	reg.SetInfo("ooc.geometry", fmt.Sprintf("%d slots / %d vectors x %d doubles",
		m.nslots, m.cfg.NumVectors, m.cfg.VectorLen))
}

// spanEvent records one compute-thread event on vector vi in slot as a
// child of the attached span (lane 0); a no-op when untraced.
func (m *Manager) spanEvent(name string, vi, slot int, start time.Time, dur time.Duration) {
	if m.span != nil {
		m.span.EmitChild(name, start, dur, obs.Attr{Key: "vid", Int: int64(vi)}, obs.Attr{Key: "slot", Int: int64(slot)})
	}
}

// InstrumentTieredStore binds a tiered store's counters and gauges to
// reg under names starting with prefix, so hosts with several tiered
// stores (one per service session) keep them apart, and gives it the
// remote latency histogram every round trip lands in. The binding rule
// is bindCounter's: a store instrumented under a prefix an earlier
// store used carries on from that store's totals, in the registry and
// in its own Stats alike. Instrument each store once, before its first
// operation.
func InstrumentTieredStore(reg *obs.Registry, ts *TieredStore, prefix string) {
	if reg == nil || ts == nil {
		return
	}
	for _, c := range ts.counters() {
		bindCounter(reg, prefix+c.name, c.c)
	}
	bindGauge(reg, prefix+"overflow", &ts.st.overflow)
	bindGauge(reg, prefix+"breaker_state", &ts.st.breakerState)
	bindGauge(reg, prefix+"degraded", &ts.st.degraded)
	ts.st.remoteLat = reg.Histogram(prefix+"remote_seconds", nil)
}
