// Package obs is a dependency-free metrics layer: counters, gauges and
// histograms with atomic hot-path updates, collected into a Registry
// that renders the Prometheus text exposition format (version 0.0.4).
//
// The package exists because the serving stack's instrumentation must
// honor the scoring core's zero-allocation contract: a metric handle is
// resolved once (at registration, or when a labelled child is first
// interned) and every subsequent update is a single atomic operation —
// no map lookups, no locks, no allocation on the hot path. The scrape
// path, by contrast, is deliberately boring: it takes the registry lock,
// walks every family in sorted name order and renders children in
// sorted label order, so two scrapes of the same state are byte-
// identical and golden tests can pin the format.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Observe is a binary
// search plus two atomic adds — allocation-free and safe for concurrent
// use.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bucket is one histogram bucket in a Snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound (le);
	// math.Inf(1) for the overflow bucket.
	UpperBound float64
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets []Bucket // cumulative, last bucket is +Inf with Count == total
}

// Snapshot copies the histogram state (not atomic across buckets; scrape
// consistency is per-bucket, as in Prometheus itself).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Sum:     math.Float64frombits(h.sum.Load()),
		Count:   h.count.Load(),
		Buckets: make([]Bucket, len(h.bounds)+1),
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets[i] = Bucket{UpperBound: h.bounds[i], Count: cum}
	}
	cum += h.counts[len(h.bounds)].Load()
	s.Buckets[len(h.bounds)] = Bucket{UpperBound: math.Inf(1), Count: cum}
	return s
}

// DefLatencyBuckets are the default request-latency bucket bounds in
// seconds (Prometheus's DefBuckets).
func DefLatencyBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// kind is the exposition TYPE of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// child is one series of a family: a concrete metric plus its label
// values (empty for unlabelled families).
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	counterFn   func() uint64
	gaugeFn     func() float64
}

// family is one registered metric name.
type family struct {
	name, help string
	kind       kind
	labels     []string
	bounds     []float64 // histogram families only

	mu   sync.RWMutex
	kids map[string]*child
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register interns a family, panicking on invalid or duplicate names —
// metric registration is program structure, not runtime input, so a bad
// name is a programmer error caught in any test that touches the metric.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	if k == kindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not sorted", name))
		}
	}
	f := &family{name: name, help: help, kind: k, labels: labels, bounds: bounds, kids: make(map[string]*child)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.fams[name] = f
	return f
}

// labelKey joins label values into a map key. \xff cannot appear in UTF-8
// text, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// get interns (creating on first sight) the child for a label-value
// tuple; make builds the concrete metric.
func (f *family) get(values []string, make func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.kids[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.kids[key]; ok {
		return c
	}
	c = make()
	c.labelValues = append([]string(nil), values...)
	f.kids[key] = c
	return c
}

// deleteByLabel drops every child whose named label has the given value.
func (f *family) deleteByLabel(label, value string) {
	idx := -1
	for i, l := range f.labels {
		if l == label {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for key, c := range f.kids {
		if c.labelValues[idx] == value {
			delete(f.kids, key)
		}
	}
}

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() *child { return &child{counter: &Counter{}} }).counter
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get(nil, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// NewHistogram registers an unlabelled histogram with the given bucket
// upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, bounds)
	return f.get(nil, func() *child { return &child{hist: newHistogram(bounds)} }).hist
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — for sources that already keep their own atomic tallies
// (e.g. the registry cache).
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.get(nil, func() *child { return &child{counterFn: fn} })
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.get(nil, func() *child { return &child{gaugeFn: fn} })
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// CounterVec is a counter family with labels. With interns a child on
// first use; hot paths should capture the returned *Counter once.
type CounterVec struct{ f *family }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child for the label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() *child { return &child{counter: &Counter{}} }).counter
}

// DeleteByLabel drops every child whose label has the given value (e.g.
// all series of a deleted model).
func (v *CounterVec) DeleteByLabel(label, value string) { v.f.deleteByLabel(label, value) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child for the label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// DeleteByLabel drops every child whose label has the given value.
func (v *GaugeVec) DeleteByLabel(label, value string) { v.f.deleteByLabel(label, value) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// NewHistogramVec registers a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, labels, bounds)
	return &HistogramVec{f: f, bounds: f.bounds}
}

// With returns the child for the label values (created on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() *child { return &child{hist: newHistogram(v.bounds)} }).hist
}

// DeleteByLabel drops every child whose label has the given value.
func (v *HistogramVec) DeleteByLabel(label, value string) { v.f.deleteByLabel(label, value) }

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double-quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest float form, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
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

// labelString renders {a="x",b="y"} for parallel name/value slices, with
// an optional extra pair appended (the histogram le label). Empty label
// sets render as no braces at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the text exposition format:
// families in sorted name order, series in sorted label-value order, so
// repeated scrapes of unchanged state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family; series order is the sorted child key order.
func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	keys := make([]string, 0, len(f.kids))
	for k := range f.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.kids[k])
	}
	f.mu.RUnlock()
	if len(kids) == 0 {
		return nil // a vec with no children yet exports nothing
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range kids {
		ls := labelString(f.labels, c.labelValues, "", "")
		switch {
		case c.counter != nil:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, c.counter.Value())
		case c.counterFn != nil:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, c.counterFn())
		case c.gauge != nil:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatValue(c.gauge.Value()))
		case c.gaugeFn != nil:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatValue(c.gaugeFn()))
		case c.hist != nil:
			snap := c.hist.Snapshot()
			for _, bk := range snap.Buckets {
				le := labelString(f.labels, c.labelValues, "le", formatValue(bk.UpperBound))
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatValue(snap.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
