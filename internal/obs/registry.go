// Package obs is the repo's unified observability layer: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms), spans — request-scoped and
// vector-lifecycle alike — exportable as Chrome trace JSON, a live
// HTTP debug endpoint, and a consolidated text report that replaces
// the per-layer -stats dumps.
//
// The paper's entire evaluation (Figures 2-5) is built from counters —
// miss rates, skipped reads, I/O volume — and the production-scale
// north star needs those counters observable while a run is in flight,
// not only as a post-mortem printout.
//
// Cost model: everything is nil-safe. An uninstrumented layer holds
// nil instrument pointers and every method on a nil *Counter, *Gauge,
// *FloatGauge or *Histogram is a no-op, so the disabled hot
// path pays one nil check per call site and never touches the clock
// (time.Now() call sites are additionally gated on an enabled flag).
// bench_test.go proves the disabled overhead bound.
package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op on every method.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the value. It exists for publisher mirroring (copying
// a snapshot struct's field into the registry); live instrumentation
// should use Add/Inc.
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer level that also tracks its
// high-water mark (queue depths, resident counts). A nil *Gauge is a
// no-op on every method.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores n and raises the high-water mark if exceeded.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.raise(n)
}

// Add moves the level by delta, raising the high-water mark as needed,
// and returns the new level.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	n := g.v.Add(delta)
	g.raise(n)
	return n
}

func (g *Gauge) raise(n int64) {
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// FloatGauge is an instantaneous float64 level (log-likelihood
// progress, rates). Stored as atomic bits; nil-safe like the rest.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores f.
func (g *FloatGauge) Set(f float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(f))
}

// Value returns the current level (0 for a nil receiver).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of instruments. Instrument lookup
// (Counter/Gauge/Histogram) takes a mutex and is meant for setup time;
// the returned instruments are lock-free. A nil *Registry returns nil
// instruments from every lookup, which makes wiring unconditional:
//
//	mx.hits = reg.Counter("ooc.hits") // reg == nil → mx.hits == nil → no-ops
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	fgauges    map[string]*FloatGauge
	hists      map[string]*Histogram
	info       map[string]string
	publishers []publisher
}

// publisher is a mirror function and the instrument-name prefix it
// publishes under.
type publisher struct {
	prefix string
	f      func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
		info:     make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op instrument) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (LatencyBuckets when bounds is nil).
// An existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SetInfo records a static key/value annotation (kernel name, strategy,
// geometry) carried through snapshots and reports.
func (r *Registry) SetInfo(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info[key] = value
}

// AddPublisher registers a function run at the start of every Snapshot.
// Publishers mirror externally owned snapshot structs (ooc.Stats and
// friends) into registry instruments on demand, so cheap counters that
// are already maintained elsewhere cost nothing on the hot path and are
// still live on the debug endpoint. Publishers must only touch
// pre-resolved instruments (they run outside the registry lock but may
// be called from any goroutine, concurrently with instrumentation).
//
// prefix is the name prefix of the instruments f sets. It is the
// publisher's identity: registering under a prefix already taken runs
// the earlier function once more, so its instruments hold its final
// values, then replaces it (a revived session's new store takes over
// from the closed one instead of being published beside it), and
// Remove drops it with its instruments.
func (r *Registry) AddPublisher(prefix string, f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	i := slices.IndexFunc(r.publishers, func(p publisher) bool { return p.prefix == prefix })
	if i < 0 {
		r.publishers = append(r.publishers, publisher{prefix, f})
		r.mu.Unlock()
		return
	}
	last := r.publishers[i].f
	r.publishers[i].f = f
	r.mu.Unlock()
	last()
}

// Remove drops every instrument and info key named under prefix and
// every publisher registered under it, so what they referenced can be
// collected. Instruments handed out earlier keep working, unexported.
func (r *Registry) Remove(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishers = slices.DeleteFunc(r.publishers, func(p publisher) bool {
		return strings.HasPrefix(p.prefix, prefix)
	})
	dropUnder(r.counters, prefix)
	dropUnder(r.gauges, prefix)
	dropUnder(r.fgauges, prefix)
	dropUnder(r.hists, prefix)
	dropUnder(r.info, prefix)
}

func dropUnder[V any](m map[string]V, prefix string) {
	maps.DeleteFunc(m, func(name string, _ V) bool { return strings.HasPrefix(name, prefix) })
}

// GaugeValue is a gauge snapshot.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of every instrument, in JSON-ready
// form. Maps are fully materialised (no live references), so a snapshot
// can outlive the run.
type Snapshot struct {
	Info        map[string]string            `json:"info,omitempty"`
	Counters    map[string]int64             `json:"counters"`
	Gauges      map[string]GaugeValue        `json:"gauges"`
	FloatGauges map[string]float64           `json:"float_gauges"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot runs the registered publishers, then collects every
// instrument. Safe to call from any goroutine (the debug endpoint calls
// it per request).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	pubs := slices.Clone(r.publishers)
	r.mu.Unlock()
	// Publishers run outside the lock: they may take layer locks (e.g.
	// the ooc manager's stats mutex) that must never nest inside r.mu.
	for _, p := range pubs {
		p.f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Info:        make(map[string]string, len(r.info)),
		Counters:    make(map[string]int64, len(r.counters)),
		Gauges:      make(map[string]GaugeValue, len(r.gauges)),
		FloatGauges: make(map[string]float64, len(r.fgauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, v := range r.info {
		s.Info[k] = v
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for k, g := range r.fgauges {
		v := g.Value()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // encoding/json rejects non-finite numbers
		}
		s.FloatGauges[k] = v
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON writes an expvar-style JSON document of the current
// snapshot (the /debug/vars payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// sortedKeys returns map keys in sorted order (deterministic output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
