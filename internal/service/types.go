package service

// Wire types of the PLF service: everything a client sends or receives
// is defined here, JSON-encoded on the wire. The likelihoods carry
// their raw float64 bit pattern alongside the decimal rendering so
// bit-for-bit comparisons (the repo's standard equivalence check)
// survive the JSON round trip.

import (
	"fmt"
	"math"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/obs"
)

// SessionConfig describes a named session: alignment + model + tree,
// plus its resource quota. It is submitted at creation and persisted in
// the session's park checkpoint so a restarted daemon can revive the
// session on the next request. It is the analysis package's Spec — the
// same document the one-shot CLI fills from its flags — so a session
// evaluates bit-identically to a one-shot run.
type SessionConfig = analysis.Spec

// validName reports whether name is safe to use in URLs, filenames and
// metric names: letters, digits and '_', at most 64. A '.' would make
// one session's metrics prefix another's ("a." of "a.b."), and a '-'
// exports as '_', so "x-1" and "x_1" would emit the same families.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
		default:
			return false
		}
	}
	return true
}

// EvalSpec is one evaluate request against a session.
type EvalSpec struct {
	// Edge indexes the tree's edge list; the likelihood is evaluated at
	// that branch after whatever partial traversal it needs (default 0).
	Edge int `json:"edge"`
	// Length, when set, evaluates the sum table at this hypothetical
	// branch length instead of the edge's current one (the tree is not
	// modified). It must lie in [tree.MinBranchLength,
	// tree.MaxBranchLength].
	Length *float64 `json:"length,omitempty"`
	// Full forces a fresh full engine pass (invalidate + complete
	// traversal) before evaluating — what a one-shot CLI run pays. The
	// default reuses the ancestral vectors earlier requests on the
	// session left valid; results are bit-identical either way.
	Full bool `json:"full,omitempty"`
}

// EvalReply is the evaluate response: the likelihood plus the
// request's timing ledger.
type EvalReply struct {
	Session string  `json:"session,omitempty"`
	Edge    int     `json:"edge"`
	LnL     float64 `json:"lnl"`
	// LnLBits is math.Float64bits(LnL) in hex — the bit-for-bit
	// comparison token (JSON float round-trips are not trusted).
	LnLBits string `json:"lnl_bits"`
	// BatchSize is always 1: every request runs on its own. It is kept
	// only because bench/serve.go reads it.
	BatchSize int `json:"batch_size"`
	// WaitMicros is the time spent waiting for the session, held by the
	// requests ahead of this one; ExecMicros this request's own engine
	// time, a revive included.
	WaitMicros int64 `json:"wait_us"`
	ExecMicros int64 `json:"exec_us"`
	// TraceID is set when the request carried a W3C traceparent header:
	// the 32-hex id under which the daemon recorded the request's spans
	// (GET /debug/trace/{id} replays them). Cost is this request's
	// resource ledger — the counter deltas over the time it held the
	// session.
	TraceID string    `json:"trace_id,omitempty"`
	Cost    *obs.Cost `json:"cost,omitempty"`
}

// FormatLnLBits renders a float64's bit pattern the way EvalReply and
// the CLI's -lnl-bits flag print it.
func FormatLnLBits(lnl float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(lnl))
}

// OptimizeSpec requests branch-length smoothing on the session tree.
type OptimizeSpec struct {
	// Passes bounds the smoothing sweeps (default 2); Eps is the early
	// exit threshold on per-sweep improvement (default 1e-3).
	Passes int     `json:"passes,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
}

// OptimizeReply reports the smoothed tree.
type OptimizeReply struct {
	Session string  `json:"session,omitempty"`
	LnL     float64 `json:"lnl"`
	LnLBits string  `json:"lnl_bits"`
	Newick  string  `json:"newick"`
}

// SessionInfo is the status document for one session.
type SessionInfo struct {
	Name     string `json:"name"`
	State    string `json:"state"` // "active" or "parked"
	Taxa     int    `json:"taxa"`
	Sites    int    `json:"sites"`
	Patterns int    `json:"patterns"`
	// OutOfCore reports whether the session's vectors live behind the
	// OOC manager; Slots is its current live pool size (0 in-core or
	// parked); QuotaBytes the configured vector quota; GrantBytes what
	// the governor currently allows (== quota unless squeezed).
	OutOfCore  bool  `json:"out_of_core"`
	Slots      int   `json:"slots"`
	QuotaBytes int64 `json:"quota_bytes"`
	GrantBytes int64 `json:"grant_bytes"`
	// LnL is the last likelihood the session computed (0 before the
	// first evaluate); LnLBits its bit pattern.
	LnL     float64 `json:"lnl"`
	LnLBits string  `json:"lnl_bits"`
	// Evals, Parks, Revives count the session's lifetime activity (they
	// survive park/revive cycles, not daemon restarts).
	Evals   int64 `json:"evals"`
	Parks   int64 `json:"parks"`
	Revives int64 `json:"revives"`
	// LastUsed is the last request touch (the idle reaper's clock).
	LastUsed time.Time `json:"last_used"`
}

// errorReply is the JSON error envelope.
type errorReply struct {
	Error string `json:"error"`
}
