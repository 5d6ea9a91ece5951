package ooc

import "time"

// Prefetching — the paper's §5 future work ("we will assess if
// pre-fetching can be deployed by means of a prefetch thread"). The
// traversal plan makes the next vector accesses perfectly predictable,
// so the likelihood engine can ask the manager to stage the next
// step's inputs while the current step computes. Synchronous managers
// execute the stage-in on the calling goroutine (the counters then
// separate blocking demand misses from prefetch-staged reads); with
// Config.Async the stage-in is handed to a background fetch worker and
// genuinely overlaps compute — the demand access joins the in-flight
// read if it arrives before the fetch completes (see pipeline.go).

// PrefetchStats extends the manager counters with prefetch accounting.
type PrefetchStats struct {
	// Issued counts Prefetch calls; Reads the store reads they caused
	// (issued minus already-resident and minus skipped).
	Issued, Reads int64
	// Hits counts demand accesses that found their vector resident
	// because a prefetch staged it.
	Hits int64
	// Wasted counts prefetched vectors evicted before any demand access.
	Wasted int64
}

// Prefetch stages vector vi into the pool without counting a demand miss.
// pinned has the same meaning as in Vector. A resident vi is a no-op.
// Prefetched data is always read from the store (the engine prefetches
// read-intent inputs only; write-intent targets are cheaper via read
// skipping).
//
// The replacement strategy is touched only when the stage-in actually
// happens: a prefetch skipped because vi is resident or because every
// resident vector is pinned must leave LRU/LFU state exactly as a run
// without that prefetch would — otherwise skipped prefetches would
// pollute the eviction order.
func (m *Manager) Prefetch(vi int, pinned ...int) error {
	if vi < 0 || vi >= m.cfg.NumVectors {
		return nil // prefetch is advisory; never fail the computation
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.noteHeld()
	m.settleWide(vi, true, pinned)
	m.pstats.Issued++
	if m.itemSlot[vi] >= 0 {
		return nil // already resident (possibly still in flight)
	}
	if err := m.makeRoom(m.lens[vi], vi, pinned); err != nil {
		// No evictable vector (everything pinned): skip the prefetch.
		if err == ErrAllPinned {
			return nil
		}
		return err
	}
	buf := m.take(m.lens[vi])
	// The stage-in is definitely happening: register the access with
	// the replacement policy so recency-aware strategies do not pick
	// the staged vector as the very next victim.
	m.cfg.Strategy.Touch(vi)
	// A vector with a pending write-back is staged from that buffer here
	// (demandRead), as a synchronous manager would read it.
	if m.pipe == nil || m.pipe.pending[vi] != nil {
		var ps time.Time
		if m.span != nil {
			ps = time.Now()
		}
		if err := m.stall(func() error { return m.demandRead(vi, buf) }); err != nil {
			if IsCorruption(err) {
				m.pipeStats.CorruptReads++
			}
			m.release(buf)
			return err
		}
		// Ledger the read only once it has actually succeeded: a failed
		// stage-in must not leave Reads/BytesRead overcounting. The
		// async path mirrors this by accounting at join time (joinSlot).
		m.pstats.Reads++
		m.stats.BytesRead += int64(len(buf)) * 8
		slot := m.place(vi, buf)
		m.prefetched[slot] = true
		if m.span != nil {
			m.spanEvent("ooc.prefetch", vi, slot, ps, time.Since(ps))
		}
		return nil
	}
	// Queue the read to a background worker; the wait below is felt
	// only when the bounded fetch queue is full. If the manager's
	// context is cancelled during that wait the prefetch is simply
	// skipped — the buffer goes back and nothing is mapped.
	start := time.Now()
	req, err := m.pipe.enqueueFetch(m.ctx, vi, buf, m.span)
	wait := time.Since(start)
	m.pipeStats.StallTime += wait
	if err != nil {
		m.release(buf)
		return nil
	}
	slot := m.place(vi, buf)
	m.prefetched[slot] = true
	m.inflight[slot] = req
	m.pipeStats.FetchesQueued++
	// The span covers only the enqueue; the read itself is the worker's
	// pipe.fetch on its own lane.
	m.spanEvent("ooc.prefetch", vi, slot, start, wait)
	return nil
}

// PrefetchStats returns the prefetch counters. Safe from any goroutine.
func (m *Manager) PrefetchStats() PrefetchStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pstats
}
