package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SLO burn-rate monitoring in the multiwindow style of the Google SRE
// workbook: each SLO declares an objective (the good-event ratio it
// promises over a budget window) and an SLI sampled as cumulative
// (good, total) counts; the evaluator keeps a short history of samples
// and reports the error-budget burn rate over fast and slow lookback
// windows. A burn rate of 1 spends the budget exactly over the SLO
// window; the fast rule (14.4× over 5m by default) catches sudden
// outages, the slow rule (6× over 1h) catches smouldering ones.
//
// Sampling is scrape-driven: every Eval/Report call (and every
// registry snapshot once Publish is wired) appends one sample, so the
// evaluator needs no background goroutine and costs nothing between
// scrapes.

// SLO is one objective over a sampled SLI.
type SLO struct {
	// Name labels the SLO in reports and slo.* gauge names.
	Name string
	// Objective is the promised good ratio in (0, 1), e.g. 0.999.
	Objective float64
	// Window is the error-budget window the objective covers (e.g.
	// 30 days); burn rates are normalized against it.
	Window time.Duration
	// SLI returns cumulative (good, total) event counts. It must be
	// monotonic and safe to call from any goroutine.
	SLI func() (good, total int64)
}

// LatencySLI builds an SLI over a latency histogram: good events are
// observations at or under threshold seconds (choose a bucket bound).
func LatencySLI(h *Histogram, threshold float64) func() (good, total int64) {
	return func() (int64, int64) { return h.CountBelow(threshold), h.Count() }
}

// ErrorSLI builds an availability SLI from an error counter and a
// total counter: good = total - errors.
func ErrorSLI(errs, total *Counter) func() (good, total int64) {
	return func() (int64, int64) {
		t := total.Value()
		e := errs.Value()
		if e > t {
			e = t
		}
		return t - e, t
	}
}

// BurnRule is one lookback window with its alerting threshold.
type BurnRule struct {
	Name      string        `json:"name"`
	Window    time.Duration `json:"-"`
	Threshold float64       `json:"threshold"`
}

// DefaultBurnRules are the SRE-workbook page-alert pair.
var DefaultBurnRules = []BurnRule{
	{Name: "fast", Window: 5 * time.Minute, Threshold: 14.4},
	{Name: "slow", Window: time.Hour, Threshold: 6},
}

// BurnStatus is one rule's evaluation.
type BurnStatus struct {
	Name string `json:"name"`
	// Window is the lookback window (formatted duration).
	Window string `json:"window"`
	// Rate is the burn rate over the window: error ratio divided by
	// the budget ratio (1 - objective). 0 when no events landed.
	Rate      float64 `json:"rate"`
	Threshold float64 `json:"threshold"`
	Firing    bool    `json:"firing"`
}

// SLOStatus is one SLO's evaluation in the /debug/slo report.
type SLOStatus struct {
	Name      string  `json:"name"`
	Objective float64 `json:"objective"`
	Window    string  `json:"window"`
	// Good/Total are the cumulative SLI counts at evaluation time;
	// GoodRatio their ratio (1 when no events yet).
	Good      int64   `json:"good"`
	Total     int64   `json:"total"`
	GoodRatio float64 `json:"good_ratio"`
	// BudgetUsed is the fraction of the error budget consumed by the
	// events observed so far (cumulative, not windowed; > 1 = blown).
	BudgetUsed float64      `json:"budget_used"`
	Burns      []BurnStatus `json:"burns"`
	Firing     bool         `json:"firing"`
}

// SLOReport is the full /debug/slo document.
type SLOReport struct {
	At   time.Time   `json:"at"`
	SLOs []SLOStatus `json:"slos"`
}

// sloSample is one cumulative SLI observation.
type sloSample struct {
	t           time.Time
	good, total int64
}

type sloState struct {
	cfg     SLO
	samples []sloSample // ascending time; pruned past the slowest rule
}

// SLOEvaluator evaluates a set of SLOs against burn-rate rules. A nil
// evaluator is a no-op. Sampling happens on Report (scrape-driven).
type SLOEvaluator struct {
	mu    sync.Mutex
	slos  []*sloState
	rules []BurnRule
	now   func() time.Time
}

// NewSLOEvaluator returns an evaluator using DefaultBurnRules when
// rules is nil.
func NewSLOEvaluator(rules []BurnRule) *SLOEvaluator {
	if len(rules) == 0 {
		rules = DefaultBurnRules
	}
	return &SLOEvaluator{rules: rules, now: time.Now}
}

// SetClock overrides the evaluator's clock (tests).
func (e *SLOEvaluator) SetClock(now func() time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.now = now
	e.mu.Unlock()
}

// Add registers one SLO. Objectives outside (0, 1) and nil SLIs are
// ignored.
func (e *SLOEvaluator) Add(s SLO) {
	if e == nil || s.SLI == nil || s.Objective <= 0 || s.Objective >= 1 {
		return
	}
	if s.Window <= 0 {
		s.Window = 24 * time.Hour
	}
	e.mu.Lock()
	e.slos = append(e.slos, &sloState{cfg: s})
	e.mu.Unlock()
}

// maxRuleWindow returns the slowest lookback (sample retention bound).
func (e *SLOEvaluator) maxRuleWindow() time.Duration {
	max := time.Duration(0)
	for _, r := range e.rules {
		if r.Window > max {
			max = r.Window
		}
	}
	return max
}

// Report samples every SLI and evaluates every rule.
func (e *SLOEvaluator) Report() SLOReport {
	if e == nil {
		return SLOReport{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	rep := SLOReport{At: now}
	keep := e.maxRuleWindow() + time.Minute
	for _, st := range e.slos {
		good, total := st.cfg.SLI()
		st.samples = append(st.samples, sloSample{t: now, good: good, total: total})
		for len(st.samples) > 1 && now.Sub(st.samples[0].t) > keep {
			st.samples = st.samples[1:]
		}
		rep.SLOs = append(rep.SLOs, e.evalLocked(st, now, good, total))
	}
	return rep
}

// evalLocked computes one SLO's status from its sample history.
func (e *SLOEvaluator) evalLocked(st *sloState, now time.Time, good, total int64) SLOStatus {
	cfg := st.cfg
	out := SLOStatus{
		Name:      cfg.Name,
		Objective: cfg.Objective,
		Window:    cfg.Window.String(),
		Good:      good,
		Total:     total,
		GoodRatio: 1,
	}
	budget := 1 - cfg.Objective
	if total > 0 {
		out.GoodRatio = float64(good) / float64(total)
		out.BudgetUsed = (1 - out.GoodRatio) / budget
	}
	for _, r := range e.rules {
		bs := BurnStatus{Name: r.Name, Window: r.Window.String(), Threshold: r.Threshold}
		// Oldest retained sample inside the lookback window gives the
		// windowed delta; a single sample yields no delta (rate 0).
		var base *sloSample
		for i := range st.samples {
			if now.Sub(st.samples[i].t) <= r.Window {
				base = &st.samples[i]
				break
			}
		}
		if base != nil {
			dTotal := total - base.total
			dGood := good - base.good
			if dTotal > 0 {
				errRatio := float64(dTotal-dGood) / float64(dTotal)
				bs.Rate = errRatio / budget
				bs.Firing = bs.Rate >= r.Threshold
			}
		}
		if bs.Firing {
			out.Firing = true
		}
		out.Burns = append(out.Burns, bs)
	}
	return out
}

// Publish mirrors the evaluator into slo.* registry instruments: per
// SLO a good-ratio float gauge, a budget-used float gauge, one burn
// float gauge per rule, and a 0/1 firing gauge. The publisher runs on
// every registry snapshot, which doubles as the sampling tick. Call
// Publish after every Add (instruments are pre-resolved here, per the
// registry's publisher contract).
func (e *SLOEvaluator) Publish(reg *Registry) {
	if e == nil || reg == nil {
		return
	}
	type sloGauges struct {
		good, used *FloatGauge
		firing     *Gauge
		burns      map[string]*FloatGauge
	}
	e.mu.Lock()
	gauges := make(map[string]sloGauges, len(e.slos))
	for _, st := range e.slos {
		base := "slo." + st.cfg.Name
		g := sloGauges{
			good:   reg.FloatGauge(base + ".good_ratio"),
			used:   reg.FloatGauge(base + ".budget_used"),
			firing: reg.Gauge(base + ".firing"),
			burns:  make(map[string]*FloatGauge, len(e.rules)),
		}
		for _, r := range e.rules {
			g.burns[r.Name] = reg.FloatGauge(base + ".burn_" + r.Name)
		}
		gauges[st.cfg.Name] = g
	}
	e.mu.Unlock()
	reg.AddPublisher("slo.", func() {
		rep := e.Report()
		for _, s := range rep.SLOs {
			g, ok := gauges[s.Name]
			if !ok {
				continue
			}
			g.good.Set(s.GoodRatio)
			g.used.Set(s.BudgetUsed)
			var firing int64
			if s.Firing {
				firing = 1
			}
			g.firing.Set(firing)
			for _, b := range s.Burns {
				g.burns[b.Name].Set(b.Rate)
			}
		}
	})
}

// WriteJSON writes the /debug/slo document.
func (e *SLOEvaluator) WriteJSON(w io.Writer) error {
	rep := e.Report()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteText writes a one-line-per-SLO human summary.
func (e *SLOEvaluator) WriteText(w io.Writer) {
	rep := e.Report()
	for _, s := range rep.SLOs {
		fmt.Fprintf(w, "%-24s objective=%.4g window=%s good=%d/%d ratio=%.6g budget_used=%.3g",
			s.Name, s.Objective, s.Window, s.Good, s.Total, s.GoodRatio, s.BudgetUsed)
		for _, b := range s.Burns {
			fmt.Fprintf(w, " burn_%s=%.3g", b.Name, b.Rate)
		}
		if s.Firing {
			fmt.Fprint(w, " FIRING")
		}
		fmt.Fprintln(w)
	}
}
