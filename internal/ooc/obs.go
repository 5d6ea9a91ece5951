package ooc

// Observability wiring for the out-of-core manager and its async
// pipeline. Instrument attaches registry instruments; an
// uninstrumented manager holds nil instruments, so every obs call on
// the hot path degrades to a nil-check no-op and no clock is read.
// Vector-lifecycle events are spans under whatever span SetSpan
// attached (spanEvent below, emitTransfer), independent of the
// registry.
//
// Two kinds of signals are exported:
//
//   - Native: quantities only observable in the act — fault-in /
//     eviction / background-I/O latencies (histograms) and live queue
//     depth (gauge).
//   - Mirrored: the Stats/PrefetchStats/PipelineStats counters the
//     manager maintains anyway. A registry publisher copies them into
//     counters on every snapshot, so they are live on the debug
//     endpoint at zero hot-path cost. The snapshot getters take the
//     stats mutex, so a mid-operation snapshot can never tear a
//     counter group (see Manager.mu).
//
// Call Instrument before issuing any manager operation: pipeline
// workers pick the instruments up through the happens-before edge of
// the first request enqueue.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"oocphylo/internal/obs"
)

// managerObs holds the manager's native instruments. The zero value
// (all nil, on=false) is the uninstrumented state.
type managerObs struct {
	// on gates the time.Now() calls the latency histograms need.
	on bool
	// faultIn observes the full demand-miss path: slot selection,
	// eviction and the store read (or its skip).
	faultIn *obs.Histogram
	// evictWrite observes synchronous eviction write-backs (the async
	// pipeline's write latency lands in pipe.write_back_seconds).
	evictWrite *obs.Histogram
	// evictions counts evictions under the configured strategy (the
	// instrument name carries the strategy, e.g. "ooc.evictions_lru").
	evictions *obs.Counter
	// slots tracks the live slot-pool size; Resize moves it at runtime.
	slots *obs.Gauge
}

// Instrument attaches reg to the manager (nil is a no-op). Must be
// called before the first Vector/Prefetch/Flush operation and at most
// once; later calls are ignored.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mx.on || reg == nil {
		return
	}
	m.mx = managerObs{
		on:         true,
		faultIn:    reg.Histogram("ooc.fault_in_seconds", nil),
		evictWrite: reg.Histogram("ooc.evict_write_seconds", nil),
		evictions:  reg.Counter("ooc.evictions_" + strings.ToLower(m.cfg.Strategy.Name())),
		slots:      reg.Gauge("ooc.slots"),
	}
	m.mx.slots.Set(int64(m.nslots))
	reg.SetInfo("ooc.strategy", m.cfg.Strategy.Name())
	reg.SetInfo("ooc.geometry", fmt.Sprintf("%d slots / %d vectors x %d doubles",
		m.nslots, m.cfg.NumVectors, m.cfg.VectorLen))
	if m.pipe != nil {
		m.pipe.instrument(reg)
	}
	m.addStatsPublisher(reg)
}

// addStatsPublisher mirrors the manager's counter groups into the
// registry on every snapshot. Counters are pre-resolved here so the
// publisher itself takes no registry locks.
func (m *Manager) addStatsPublisher(reg *obs.Registry) {
	if reg == nil {
		return
	}
	type mirrors struct {
		requests, hits, misses, reads, skippedReads  *obs.Counter
		writes, skippedWrites, bytesRead, bytesWrite *obs.Counter
		pfIssued, pfReads, pfHits, pfWasted          *obs.Counter
		fetchesQ, writesQ, joined, wqHits            *obs.Counter
		overlapped, depthMax                         *obs.Counter
		corrupt, dropped                             *obs.Counter
		grows, shrinks, resizeEvict                  *obs.Counter
		stall, joinWait, bufWait                     *obs.FloatGauge
	}
	c := mirrors{
		requests:      reg.Counter("ooc.requests"),
		hits:          reg.Counter("ooc.hits"),
		misses:        reg.Counter("ooc.misses"),
		reads:         reg.Counter("ooc.reads"),
		skippedReads:  reg.Counter("ooc.skipped_reads"),
		writes:        reg.Counter("ooc.writes"),
		skippedWrites: reg.Counter("ooc.skipped_writes"),
		bytesRead:     reg.Counter("ooc.bytes_read"),
		bytesWrite:    reg.Counter("ooc.bytes_written"),
		pfIssued:      reg.Counter("ooc.prefetch_issued"),
		pfReads:       reg.Counter("ooc.prefetch_reads"),
		pfHits:        reg.Counter("ooc.prefetch_hits"),
		pfWasted:      reg.Counter("ooc.prefetch_wasted"),
		fetchesQ:      reg.Counter("pipe.fetches_queued"),
		writesQ:       reg.Counter("pipe.writes_queued"),
		joined:        reg.Counter("pipe.joined_fetches"),
		wqHits:        reg.Counter("pipe.write_queue_hits"),
		overlapped:    reg.Counter("pipe.overlapped_bytes"),
		depthMax:      reg.Counter("pipe.queue_depth_max"),
		corrupt:       reg.Counter("ooc.corrupt_reads"),
		dropped:       reg.Counter("ooc.dropped_writebacks"),
		grows:         reg.Counter("ooc.resize_grows"),
		shrinks:       reg.Counter("ooc.resize_shrinks"),
		resizeEvict:   reg.Counter("ooc.resize_evictions"),
		stall:         reg.FloatGauge("pipe.stall_seconds"),
		joinWait:      reg.FloatGauge("pipe.join_wait_seconds"),
		bufWait:       reg.FloatGauge("pipe.buffer_wait_seconds"),
	}
	reg.AddPublisher("ooc.", func() {
		st := m.Stats()
		pf := m.PrefetchStats()
		ps := m.PipelineStats()
		rs := m.ResizeStats()
		c.grows.Set(rs.Grows)
		c.shrinks.Set(rs.Shrinks)
		c.resizeEvict.Set(rs.Evictions)
		c.requests.Set(st.Requests)
		c.hits.Set(st.Hits)
		c.misses.Set(st.Misses)
		c.reads.Set(st.Reads)
		c.skippedReads.Set(st.SkippedReads)
		c.writes.Set(st.Writes)
		c.skippedWrites.Set(st.SkippedWrites)
		c.bytesRead.Set(st.BytesRead)
		c.bytesWrite.Set(st.BytesWritten)
		c.pfIssued.Set(pf.Issued)
		c.pfReads.Set(pf.Reads)
		c.pfHits.Set(pf.Hits)
		c.pfWasted.Set(pf.Wasted)
		c.fetchesQ.Set(ps.FetchesQueued)
		c.writesQ.Set(ps.WritesQueued)
		c.joined.Set(ps.JoinedFetches)
		c.wqHits.Set(ps.WriteQueueHits)
		c.overlapped.Set(ps.OverlappedBytes)
		c.depthMax.Set(ps.QueueDepthMax)
		c.corrupt.Set(ps.CorruptReads)
		c.dropped.Set(ps.DroppedWritebacks)
		c.stall.Set(ps.StallTime.Seconds())
		c.joinWait.Set(ps.JoinWait.Seconds())
		c.bufWait.Set(ps.BufferWait.Seconds())
	})
}

// spanEvent records one compute-thread event on vector vi in slot as a
// child of the attached span (lane 0); a no-op when untraced.
func (m *Manager) spanEvent(name string, vi, slot int, start time.Time, dur time.Duration) {
	if m.span != nil {
		m.span.EmitChild(name, start, dur, obs.Attr{Key: "vid", Int: int64(vi)}, obs.Attr{Key: "slot", Int: int64(slot)})
	}
}

// InstrumentTieredStore exports a tiered store's per-tier counters and
// remote latency to the registry. Counters (hits, misses, bytes per
// tier, evictions, overflowed vectors) follow the mirrored
// pattern — a publisher copies the TierStats snapshot on every debug
// scrape. Remote request latency is a native histogram fed per request
// from the miss and write-back paths, so the debug endpoint reports
// p50/p90/p99 round-trip times.
func InstrumentTieredStore(reg *obs.Registry, ts *TieredStore) {
	InstrumentTieredStoreAs(reg, ts, "tier.")
}

// InstrumentTieredStoreAs is InstrumentTieredStore with a caller-chosen
// name prefix, so hosts with several tiered stores (one per service
// session) keep their counters apart. The publisher adds what each
// counter gained since it last ran, so a store instrumented under a
// prefix an earlier store used carries on from that store's totals;
// instrument each store once.
func InstrumentTieredStoreAs(reg *obs.Registry, ts *TieredStore, prefix string) {
	if reg == nil || ts == nil {
		return
	}
	type mirrors struct {
		cacheHits, cacheMisses, remoteReads, remoteWrites *obs.Counter
		remoteVecsR, remoteVecsW                          *obs.Counter
		bytesCache, bytesFetched, bytesPushed             *obs.Counter
		evictions, dirtyWB                                *obs.Counter
		remoteErrors, remoteRetries                       *obs.Counter
		breakerOpens, shortCircuits                       *obs.Counter
		overflow, degraded, breakerState                  *obs.Gauge
	}
	c := mirrors{
		cacheHits:     reg.Counter(prefix + "cache_hits"),
		cacheMisses:   reg.Counter(prefix + "cache_misses"),
		remoteReads:   reg.Counter(prefix + "remote_reads"),
		remoteWrites:  reg.Counter(prefix + "remote_writes"),
		remoteVecsR:   reg.Counter(prefix + "remote_vectors_read"),
		remoteVecsW:   reg.Counter(prefix + "remote_vectors_written"),
		bytesCache:    reg.Counter(prefix + "bytes_from_cache"),
		bytesFetched:  reg.Counter(prefix + "bytes_fetched"),
		bytesPushed:   reg.Counter(prefix + "bytes_pushed"),
		evictions:     reg.Counter(prefix + "evictions"),
		dirtyWB:       reg.Counter(prefix + "dirty_writebacks"),
		remoteErrors:  reg.Counter(prefix + "remote_errors"),
		remoteRetries: reg.Counter(prefix + "remote_retries"),
		breakerOpens:  reg.Counter(prefix + "breaker_opens"),
		shortCircuits: reg.Counter(prefix + "short_circuits"),
		overflow:      reg.Gauge(prefix + "overflow"),
		breakerState:  reg.Gauge(prefix + "breaker_state"),
		degraded:      reg.Gauge(prefix + "degraded"),
	}
	var mu sync.Mutex
	var last TierStats // what the counters already hold of ts
	reg.AddPublisher(prefix, func() {
		mu.Lock()
		defer mu.Unlock()
		st := ts.Stats()
		c.cacheHits.Add(st.CacheHits - last.CacheHits)
		c.cacheMisses.Add(st.CacheMisses - last.CacheMisses)
		c.remoteReads.Add(st.RemoteReads - last.RemoteReads)
		c.remoteWrites.Add(st.RemoteWrites - last.RemoteWrites)
		c.remoteVecsR.Add(st.RemoteVectorsRead - last.RemoteVectorsRead)
		c.remoteVecsW.Add(st.RemoteVectorsWritten - last.RemoteVectorsWritten)
		c.bytesCache.Add(st.BytesFromCache - last.BytesFromCache)
		c.bytesFetched.Add(st.BytesFetched - last.BytesFetched)
		c.bytesPushed.Add(st.BytesPushed - last.BytesPushed)
		c.evictions.Add(st.Evictions - last.Evictions)
		c.dirtyWB.Add(st.DirtyWritebacks - last.DirtyWritebacks)
		c.remoteErrors.Add(st.RemoteErrors - last.RemoteErrors)
		c.remoteRetries.Add(st.RemoteRetries - last.RemoteRetries)
		c.breakerOpens.Add(st.BreakerOpens - last.BreakerOpens)
		c.shortCircuits.Add(st.ShortCircuits - last.ShortCircuits)
		last = st
		c.overflow.Set(st.Overflow)
		// Breaker position as a numeric gauge (0 closed, 1 open,
		// 2 half-open) so dashboards can alert on transitions.
		c.breakerState.Set(int64(ts.Breaker().State()))
		if st.Degraded {
			c.degraded.Set(1)
		} else {
			c.degraded.Set(0)
		}
	})
	h := reg.Histogram(prefix+"remote_seconds", nil)
	ts.ObserveRemoteLatency(h.Observe)
}
