// Package obs is the observability core of the serving and training
// daemons: dependency-free atomic counters, gauges and log-bucketed
// latency histograms, collected in a Registry that renders
// the Prometheus text exposition format.
//
// The design constraint is the serving hot path: recording a measurement
// (Counter.Add, Gauge.Set, Histogram.Observe) touches only pre-allocated
// atomics — no locks, no maps, no allocation — so a decision that takes a
// few microseconds can be instrumented without distorting what it
// measures. All layout work (label sets, bucket bounds, HELP/TYPE text)
// happens once at registration; scrape-time reads walk the registered
// series under a registry lock that the hot path never takes.
//
// Metrics register idempotently: asking for the same (name, type, label
// set) twice returns the same instrument, so per-sweep registration in a
// long-lived process (one gather per op through one coordinator) needs no
// caller-side caching.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//adsala:zeroalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters are monotone).
//
//adsala:zeroalloc
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down. It stores float64
// bits, so integer and fractional gauges share one type.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//adsala:zeroalloc
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// metricKind discriminates the series types a family can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// promType returns the Prometheus TYPE keyword of the kind.
func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// sameType reports whether two kinds expose as the same Prometheus type
// (a family may mix e.g. Counter and CounterFunc series).
func sameType(a, b metricKind) bool { return a.promType() == b.promType() }

// series is one registered (labels → instrument) binding.
type series struct {
	labels    []Label
	labelText string // rendered {a="b",...} suffix, "" when unlabelled
	kind      metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family groups every series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind

	series map[string]*series // keyed by labelText
	order  []string
}

// Registry collects metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call NewRegistry.
// Registration and scraping lock the registry; recording into returned
// instruments is lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use. Panics if name is already registered
// as a different metric type (a programming error, like Prometheus client
// libraries treat it).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getOrCreate(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters that must stay
// authoritative (e.g. the serving engine's /stats fields).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getOrCreate(name, help, kindCounterFunc, labels)
	s.fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (cache occupancy, queue depths, readiness).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getOrCreate(name, help, kindGaugeFunc, labels)
	s.fn = fn
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the scale on first use. scale converts
// observed units into exposition units (1e-9 turns nanosecond
// observations into Prometheus-conventional seconds; 1 keeps raw units).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = NewHistogram(scale)
	}
	return s.hist
}

// RegisterHistogram attaches an existing histogram (e.g. one owned by the
// serving engine since construction) under name with the given labels.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	s := r.getOrCreate(name, help, kindHistogram, labels)
	s.hist = h
}

// getOrCreate returns the series for (name, labels), creating family and
// series as needed, and panics on a type conflict.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label) *series {
	if err := checkName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := checkLabelName(l.Name); err != nil {
			panic(err)
		}
	}
	labelText := renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if !sameType(f.kind, kind) {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
			name, f.kind.promType(), kind.promType()))
	}
	s, ok := f.series[labelText]
	if !ok {
		s = &series{labels: labels, labelText: labelText, kind: kind}
		f.series[labelText] = s
		f.order = append(f.order, labelText)
	} else if s.kind != kind {
		panic(fmt.Sprintf("obs: series %s%s registered with a different instrument kind", name, labelText))
	}
	return s
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.WriteText(&b)
		_, _ = w.Write([]byte(b.String()))
	})
}

// WriteText renders every family, sorted by metric name (series sorted by
// label text), in the Prometheus text exposition format.
func (r *Registry) WriteText(b *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		writeFamily(b, f)
	}
}

// checkName validates a Prometheus metric name.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
			continue
		}
		if c >= '0' && c <= '9' && i > 0 {
			continue
		}
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	return nil
}

// checkLabelName validates a Prometheus label name.
func checkLabelName(name string) error {
	if name == "" || strings.HasPrefix(name, "__") {
		return fmt.Errorf("obs: invalid label name %q", name)
	}
	for i, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			continue
		}
		if c >= '0' && c <= '9' && i > 0 {
			continue
		}
		return fmt.Errorf("obs: invalid label name %q", name)
	}
	return nil
}

// renderLabels renders a sorted {a="b",c="d"} suffix with escaped values;
// an empty set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		escapeLabelValue(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue writes v with backslash, double-quote and newline
// escaped per the exposition format.
func escapeLabelValue(b *strings.Builder, v string) {
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
}
