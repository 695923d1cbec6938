// Package obs is the observability core of the serving and training
// daemons: dependency-free log-bucketed latency histograms and a Registry
// that renders the Prometheus text exposition format.
//
// The registry owns no instruments. Every exported number is a view over
// state its owner already keeps: CounterFunc and GaugeFunc read a
// component's own atomics at scrape time, and RegisterHistogram attaches a
// Histogram the component built with NewHistogram. Recording therefore
// stays wherever the owner records — on the serving hot path, a few atomic
// adds with no lock, map or allocation — and all layout work (label sets,
// HELP/TYPE text) happens once at registration; scrape-time reads walk the
// registered series under a registry lock that the hot path never takes.
//
// Registration is idempotent: registering the same (name, type, label set)
// again rebinds that one series instead of adding a second.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the series types a family can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// promType returns the Prometheus TYPE keyword of the kind.
func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (labels → view) binding.
type series struct {
	labelText string // rendered {a="b",...} suffix, "" when unlabelled
	hist      *Histogram
	fn        func() float64
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
// Registration and scraping lock the registry; the views it reads are
// whatever their owners made them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. Panics if name is already registered as a different metric type (a
// programming error, like Prometheus client libraries treat it).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, kindCounter, labels).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (cache occupancy, queue depths).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, kindGauge, labels).fn = fn
}

// RegisterHistogram attaches a histogram its owner keeps (built with
// NewHistogram, whose scale sets the exposition units) under name with the
// given labels.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.getOrCreate(name, help, kindHistogram, labels).hist = h
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
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
			name, f.kind.promType(), kind.promType()))
	}
	s, ok := f.series[labelText]
	if !ok {
		s = &series{labelText: labelText}
		f.series[labelText] = s
		f.order = append(f.order, labelText)
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
