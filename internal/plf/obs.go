package plf

// Observability wiring for the likelihood engine. Unlike the ooc
// manager's publisher-mirrored snapshot counters, the engine's Stats is
// a plain exported struct mutated on the compute goroutine — a
// publisher reading it from the debug endpoint's goroutine would be a
// data race. The counters are therefore mirrored natively: every
// Stats++ site also bumps a nil-safe registry counter, which costs one
// nil check when uninstrumented and one atomic add when on. Trace
// events are spans under the one SetSpan attached (engine.go), not
// registry instruments.

import "oocphylo/internal/obs"

// engineObs holds the engine's instruments; the zero value is the
// uninstrumented state (all nil, on=false).
type engineObs struct {
	// on gates the time.Now() calls around kernel invocations.
	on bool
	// Mirrors of the Stats struct, updated at the same sites.
	newviews, classes, evaluations *obs.Counter
	sumTables, newtonIters         *obs.Counter
	recoveries                     *obs.Counter
	pcHits, pcMisses, pcDrops      *obs.Counter
	// Per-operation latencies, labelled by the active kernel via the
	// registry's plf.kernel info key.
	newviewLat, evalLat, sumTableLat *obs.Histogram
}

// Instrument attaches reg to the engine (nil is a no-op). Call it
// after SetKernel (the kernel name is recorded as run info) and before
// the first evaluation; at most once.
func (e *Engine) Instrument(reg *obs.Registry) {
	if e.eobs.on || reg == nil {
		return
	}
	e.eobs = engineObs{
		on:          true,
		newviews:    reg.Counter("plf.newviews"),
		classes:     reg.Counter("plf.classes_computed"),
		evaluations: reg.Counter("plf.evaluations"),
		sumTables:   reg.Counter("plf.sum_tables"),
		newtonIters: reg.Counter("plf.newton_iters"),
		recoveries:  reg.Counter("plf.recoveries"),
		pcHits:      reg.Counter("plf.pcache_hits"),
		pcMisses:    reg.Counter("plf.pcache_misses"),
		pcDrops:     reg.Counter("plf.pcache_drops"),
		newviewLat:  reg.Histogram("plf.newview_seconds", nil),
		evalLat:     reg.Histogram("plf.evaluate_seconds", nil),
		sumTableLat: reg.Histogram("plf.sum_table_seconds", nil),
	}
	reg.SetInfo("plf.kernel", e.KernelName())
	reg.SetInfo("plf.kernel_mode", e.KernelMode())
}
