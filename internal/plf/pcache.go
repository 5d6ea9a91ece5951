package plf

import "math"

// Branch-length-keyed transition-matrix cache. NNI and SPR rounds
// re-evaluate the same branches (and the same Newton-converged lengths)
// over and over, so newview/evaluate were rebuilding identical P(rt)
// matrices — O(nCat·k³) plus nCat·k exp() calls — and tip-sum tables
// from scratch on every step. The cache memoises both per exact branch
// length (float64 bit pattern), is invalidated wholesale whenever the
// model's Version() changes, and is disabled entirely under
// KernelGeneric so the legacy baseline stays byte-for-byte intact.
// PMatrices is deterministic in (model, t), so a cached matrix is
// bit-identical to a rebuilt one and the cache cannot perturb results.

// pcacheMinCap is the least entry bound. A cache holds
// max(pcacheMinCap, 2·edges) entries, so one full traversal's lengths
// fit with room for as many more (a search's trial lengths): a cache
// smaller than the tree emptied itself every cap misses and a full
// traversal hit it one time in six. A full cache is dropped wholesale:
// O(1), and the working set refills in a few steps. Newton branch
// optimisation is the only producer of unbounded distinct lengths, and
// it touches matrices through the sum table, not the cache.
const pcacheMinCap = 512

// pcEntry is one cached branch length: the per-category transition
// matrices and, built lazily on first tip use, the tip-sum table
// derived from them.
type pcEntry struct {
	pmats  []float64 // nCat × k²
	tipSum []float64 // nCat × nm × k, nil until needed
}

// pcache maps branch-length bit patterns to entries built under one
// model version.
type pcache struct {
	entries map[uint64]*pcEntry
	version uint64
	cap     int
}

// newPCache returns an empty cache sized for a tree with edges branches.
func newPCache(edges int) *pcache {
	return &pcache{entries: make(map[uint64]*pcEntry, 64), cap: max(pcacheMinCap, 2*edges)}
}

// pmatsFor returns the transition matrices for branch length t: from
// the cache when enabled (allocating and filling a new entry on miss),
// otherwise by filling scratch exactly as the legacy path did. The
// returned entry is nil when the cache is off.
func pmatsFor(e *Engine, t float64, scratch []float64) ([]float64, *pcEntry) {
	c := e.c.pcache
	if c == nil {
		e.M.PMatrices(scratch, t)
		return scratch, nil
	}
	if v := e.M.Version(); c.version != v {
		// Model parameters changed: every cached matrix is stale.
		clear(c.entries)
		c.version = v
	}
	// -0.0 and +0.0 are the same branch length but distinct bit
	// patterns; keying on the raw bits would hold two entries with
	// bit-identical matrices. A non-finite length bypasses the cache
	// entirely: NaN bits could never be re-hit usefully (every NaN
	// "length" is a caller bug anyway) and an Inf entry would only pin
	// a degenerate matrix in the working set.
	if t == 0 {
		t = 0
	}
	if math.IsInf(t, 0) || math.IsNaN(t) {
		e.M.PMatrices(scratch, t)
		return scratch, nil
	}
	key := math.Float64bits(t)
	if ent, ok := c.entries[key]; ok {
		e.Stats.PCacheHits++
		e.eobs.pcHits.Inc()
		return ent.pmats, ent
	}
	e.Stats.PCacheMisses++
	e.eobs.pcMisses.Inc()
	if len(c.entries) >= c.cap {
		clear(c.entries)
		e.Stats.PCacheDrops++
		e.eobs.pcDrops.Inc()
	}
	ent := &pcEntry{pmats: make([]float64, e.nCat*e.nStates*e.nStates)}
	e.M.PMatrices(ent.pmats, t)
	c.entries[key] = ent
	return ent.pmats, ent
}

// tipSumFor returns the tip-sum table for the given matrices, cached on
// ent when available, otherwise built into scratch (legacy path).
func tipSumFor(e *Engine, ent *pcEntry, pmats, scratch []float64) []float64 {
	if ent == nil {
		buildTipSum(e, scratch, pmats)
		return scratch
	}
	if ent.tipSum == nil {
		ts := make([]float64, e.nCat*len(e.maskList)*e.nStates)
		buildTipSum(e, ts, ent.pmats)
		ent.tipSum = ts
	}
	return ent.tipSum
}
