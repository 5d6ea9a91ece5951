package search

// Observability wiring for the search loop. Counters mirror the Result
// fields natively (Result is a plain struct owned by the compute
// goroutine; a publisher reading it from the debug endpoint would
// race), gauges expose live progress: the current log-likelihood and
// the candidate-evaluation rate of the latest SPR sweep — the numbers
// an operator watches to decide whether a long run is still moving.
// Each round is also a search.round span under the span attached to the
// searcher's engine.

import (
	"time"

	"oocphylo/internal/obs"
)

// searchObs holds the searcher's instruments; the zero value is the
// uninstrumented state.
type searchObs struct {
	on                       bool
	rounds, tested, accepted *obs.Counter
	// lnl tracks the best log-likelihood so far; movesPerSec is the
	// candidate-evaluation rate of the latest SPR sweep.
	lnl, movesPerSec *obs.FloatGauge
	// roundLat observes the duration of each SPR sweep.
	roundLat *obs.Histogram
}

// Instrument attaches reg to the searcher (nil is a no-op). Call
// before Run; at most once.
func (s *Searcher) Instrument(reg *obs.Registry) {
	if s.sobs.on || reg == nil {
		return
	}
	s.sobs = searchObs{
		on:          true,
		rounds:      reg.Counter("search.rounds"),
		tested:      reg.Counter("search.moves_tested"),
		accepted:    reg.Counter("search.moves_accepted"),
		lnl:         reg.FloatGauge("search.lnl"),
		movesPerSec: reg.FloatGauge("search.moves_per_sec"),
		roundLat:    reg.Histogram("search.round_seconds", nil),
	}
}

// timed reports whether a round's start time is needed: the searcher is
// instrumented or its engine traced.
func (s *Searcher) timed() bool { return s.sobs.on || s.E.Span() != nil }

// noteRound records one completed SPR sweep: durations, progress
// gauges and a search.round span carrying the round number.
func (s *Searcher) noteRound(round int, res *Result, lnl float64, start time.Time, testedBefore int) {
	if !s.timed() {
		return
	}
	dur := time.Since(start)
	if sp := s.E.Span(); sp != nil {
		sp.EmitChild("search.round", start, dur, obs.Attr{Key: "round", Int: int64(round)})
	}
	s.sobs.rounds.Inc()
	s.sobs.roundLat.Observe(dur.Seconds())
	s.sobs.lnl.Set(lnl)
	s.sobs.tested.Set(int64(res.TestedMoves))
	s.sobs.accepted.Set(int64(res.AcceptedMoves))
	if secs := dur.Seconds(); secs > 0 {
		s.sobs.movesPerSec.Set(float64(res.TestedMoves-testedBefore) / secs)
	}
}
