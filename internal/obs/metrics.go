// Package obs is the observability layer of the POD-Diagnosis
// reproduction: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms) exposed in the Prometheus text exposition
// format, and a lightweight span tracer whose completed spans land in a
// ring buffer queryable as JSON.
//
// The package is stdlib-only by design — the repo's hard constraint is no
// third-party dependencies — but the exposition format is wire-compatible
// with Prometheus scrapers, and the span model (trace id, span id, parent
// id, attributes) maps one-to-one onto OpenTelemetry semantics should a
// real exporter ever be bolted on.
//
// Like Prometheus' default registerer, obs ships a process-global Default
// registry and Default tracer; instrumented packages declare their
// instruments as package-level variables against them, so every binary
// that links a component automatically exposes its metric families.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds (seconds),
// spanning sub-millisecond hot paths to multi-second diagnosis walks.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// metricType enumerates the exposition families.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. It is safe for concurrent use. Creating
// the same instrument twice returns the existing one, so package-level
// instrument variables may be declared independently by any number of
// components sharing a registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family with its labelled series.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any // joined label values -> *Counter | *Gauge | *Histogram
}

// labelSep joins label values into series keys; it cannot appear in
// well-formed label values.
const labelSep = "\xff"

// family returns the named family, creating it on first use. Redeclaring
// a family with a different type or label set is a programming error and
// panics, mirroring Prometheus registration semantics.
func (r *Registry) family(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: conflicting redeclaration of metric %q", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]any),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the series for the label values, creating it with mk. The
// key is built in a stack buffer for the lookup, so finding a series that
// exists allocates nothing; the key string is made once, with the series.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, labelSep...)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	s, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	s = mk()
	f.series[string(key)] = s
	return s
}

// ---- counters ----

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by v; negative deltas panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter cannot decrease")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// Counter declares (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec declares (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// ---- gauges ----

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments by v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// Gauge declares (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec declares (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// ---- histograms ----

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	total  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound with v <= bound; len(bounds) is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Histogram declares (or fetches) an unlabelled histogram. Nil buckets
// mean DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, normBuckets(buckets))
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec declares (or fetches) a labelled histogram family. Nil
// buckets mean DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, normBuckets(buckets))}
}

// normBuckets copies, sorts and defaults histogram bounds.
func normBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefBuckets
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	return out
}

// addFloat atomically adds v to float64 bits stored in u.
func addFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if u.CompareAndSwap(old, newBits) {
			return
		}
	}
}
