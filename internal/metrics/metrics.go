// Package metrics is a dependency-free metrics registry for the
// power-delivery daemon and its subsystems: counters, gauges, and
// histograms, optionally labelled, with Prometheus text-format exposition
// and an expvar-style JSON dump.
//
// The design follows two rules the control loop imposes:
//
//   - Instrumentation must be optional and free when disabled. Every
//     metric's methods are nil-receiver safe, so an uninstrumented
//     component holds nil handles and pays a single branch per event.
//   - Registration is idempotent (get-or-create): components register
//     their families at construction and several instances may share one
//     registry, as Prometheus client libraries allow.
//
// All operations are safe for concurrent use; the HTTP exposition path is
// exercised under the race detector.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// metricKind discriminates family types.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// DefBuckets are the default histogram buckets (seconds), spanning the
// microsecond control-loop iterations up to multi-second stalls.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reports the current count (zero on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reports the current value (zero on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeFunc is a gauge whose value is computed at scrape time by a
// callback — used for values that are cheaper to derive than to track,
// such as process uptime. The callback must be safe for concurrent use.
type GaugeFunc struct {
	fn func() float64
}

// Value invokes the callback (zero on a nil GaugeFunc).
func (g *GaugeFunc) Value() float64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // per-bucket (non-cumulative), len(uppers)+1
	sum    float64
	count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot returns cumulative bucket counts aligned with uppers plus +Inf.
func (h *Histogram) snapshot() (uppers []float64, cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cumulative[i] = run
	}
	return h.uppers, cumulative, h.sum, h.count
}

// family is one named metric family, possibly labelled.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter/*Gauge/*Histogram
	keys     []string       // insertion order
	lvals    map[string][]string
}

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	}
	f.children[key] = m
	f.keys = append(f.keys, key)
	f.lvals[key] = append([]string(nil), values...)
	return m
}

// childFunc adds a *GaugeFunc child for values unless one exists.
func (f *family) childFunc(values []string, fn func() float64) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; ok {
		return
	}
	f.children[key] = &GaugeFunc{fn: fn}
	f.keys = append(f.keys, key)
	f.lvals[key] = append([]string(nil), values...)
}

// remove drops the child for values, if there is one; the others keep
// their order.
func (f *family) remove(values []string) {
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		return
	}
	delete(f.children, key)
	delete(f.lvals, key)
	i := slices.Index(f.keys, key)
	f.keys = slices.Delete(f.keys, i, i+1)
}

func newHistogram(buckets []float64) *Histogram {
	uppers := append([]float64(nil), buckets...)
	sort.Float64s(uppers)
	return &Histogram{uppers: uppers, counts: make([]uint64, len(uppers)+1)}
}

func labelKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	return key
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (nil on a nil vec).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Counter)
}

// Delete removes the counter for the given label values, so a scrape no
// longer shows it and a later With starts it from zero. Values with no
// counter, or a nil vec, are a no-op.
func (v *CounterVec) Delete(values ...string) {
	if v != nil {
		v.f.remove(values)
	}
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (nil on a nil vec).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Gauge)
}

// Delete removes the gauge for the given label values, so a scrape no
// longer shows it and a later With starts it from zero. Values with no
// gauge, or a nil vec, are a no-op.
func (v *GaugeVec) Delete(values ...string) {
	if v != nil {
		v.f.remove(values)
	}
}

// WithFunc registers, under the given label values, a child whose value
// fn computes at scrape time, so a writer that already keeps the number
// pays nothing per update. Like Registry.GaugeFunc it is idempotent: if
// the label values already have a child, that child wins and fn is
// dropped. fn must be safe for concurrent use.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.childFunc(values, fn)
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (nil on a nil vec).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Histogram)
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid "disabled" registry: every
// constructor returns nil handles whose methods no-op.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family registers or fetches a family, enforcing kind and label agreement.
func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
		lvals:    make(map[string][]string),
	}
	r.fams[name] = f
	r.names = append(r.names, name)
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// GaugeFunc registers an unlabelled gauge computed by fn at scrape
// time. Registration is idempotent: if the family already has a child
// (a previous GaugeFunc or a plain Gauge of the same name), the
// existing child wins and fn is dropped.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.family(name, help, kindGauge, nil, nil).childFunc(nil, fn)
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// upper bucket bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.family(name, help, kindHistogram, nil, buckets).child(nil).(*Histogram)
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, buckets)}
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
