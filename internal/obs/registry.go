package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metric is one named monotonic counter in a Registry. All methods are
// safe for concurrent use; a Metric is obtained once (Registry.Counter
// or CounterVec.With) and bumped on hot paths with a single atomic add.
type Metric struct {
	name string
	v    atomic.Int64
}

// Name returns the metric's registered name.
func (m *Metric) Name() string { return m.name }

// Add increments the counter by n.
func (m *Metric) Add(n int64) { m.v.Add(n) }

// Inc increments the counter by one.
func (m *Metric) Inc() { m.v.Add(1) }

// Load returns the current value.
func (m *Metric) Load() int64 { return m.v.Load() }

// MetricType classifies a metric family for exposition.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// labelSep joins label values into a child key. \x1f (unit separator)
// cannot appear in sane label values; a value containing it still only
// risks aliasing two children of the same family, never corruption.
const labelSep = "\x1f"

// family is one named metric family: a type, a help string, a label
// schema, and a set of children (one per distinct label-value tuple;
// exactly one, keyed by the empty string, for unlabeled metrics).
// Children are read through a sync.Map so steady-state lookups are
// lock-free; creation serializes on mu.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64      // histogram families only
	fn     func() float64 // callback families (CounterFunc/GaugeFunc) only

	mu       sync.Mutex
	children sync.Map // label key -> *Metric | *Gauge | *Histogram
}

// child returns the family member for the given label key, creating it
// on first use. The fast path is a single lock-free map load.
func (f *family) child(key string) any {
	if c, ok := f.children.Load(key); ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c
	}
	var c any
	switch f.typ {
	case TypeCounter:
		c = &Metric{name: f.name}
	case TypeGauge:
		c = &Gauge{name: f.name}
	case TypeHistogram:
		c = newHistogram(f.name, f.bounds)
	}
	f.children.Store(key, c)
	return c
}

// Registry is a namespace of metric families — counters, gauges and
// histograms, unlabeled or labeled — the service-level complement of
// the per-query span tree. Long-lived components register metrics once
// and bump them per event; an endpoint renders the whole registry for
// scraping (WritePrometheus for the Prometheus text exposition,
// WriteText for the terse name/value form). The zero value is not
// usable; call NewRegistry. All lookups take a lock-free fast path
// once a metric exists, so hot paths can re-resolve by name without
// contending (see BenchmarkCounterLookup).
type Registry struct {
	mu       sync.Mutex // serializes family creation only
	families sync.Map   // name -> *family
	counters sync.Map   // name -> *Metric; unlabeled-counter lookup cache
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// family returns the named family, creating it with the given schema
// on first registration. Re-registering an existing name returns the
// incumbent; a type or label-arity mismatch is a programmer error and
// panics — metric names are a global contract and silently aliasing
// two schemas would corrupt the exposition. A metric or label name
// outside the Prometheus text format's grammar panics at first
// registration too, so a malformed name fails the first test that
// registers it rather than a scrape.
func (r *Registry) family(name, help string, typ MetricType, labels []string, bounds []float64, fn func() float64) *family {
	if v, ok := r.families.Load(name); ok {
		f := v.(*family)
		f.check(typ, labels)
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.families.Load(name); ok {
		f := v.(*family)
		f.check(typ, labels)
		return f
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l))
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds, fn: fn}
	r.families.Store(name, f)
	return f
}

func (f *family) check(typ MetricType, labels []string) {
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v with %d labels (have %v with %d labels)",
			f.name, typ, len(labels), f.typ, len(f.labels)))
	}
}

// validMetricName reports whether s matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches the Prometheus label name
// grammar [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter returns the unlabeled counter with the given name, creating
// it at zero on first use. Nil-safe: a nil registry hands out an
// unregistered metric, so components can count unconditionally whether
// or not anyone is scraping. The steady-state lookup is one lock-free
// map load — hot paths may call Counter per event (see
// BenchmarkCounterLookup), though holding the *Metric is cheaper still.
func (r *Registry) Counter(name string) *Metric {
	if r == nil {
		return &Metric{name: name}
	}
	if m, ok := r.counters.Load(name); ok {
		return m.(*Metric)
	}
	m := r.family(name, "", TypeCounter, nil, nil, nil).child("").(*Metric)
	r.counters.Store(name, m)
	return m
}

// SetHelp attaches (or replaces) the HELP text of an existing family —
// the escape hatch for metrics created through the terse Counter(name)
// form. No-op when the family does not exist or on a nil registry.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	if v, ok := r.families.Load(name); ok {
		v.(*family).help = help
	}
}

// Gauge returns the unlabeled gauge with the given name, creating it
// on first use. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{name: name}
	}
	return r.family(name, help, TypeGauge, nil, nil, nil).child("").(*Gauge)
}

// GaugeFunc registers a callback gauge: fn is invoked at scrape time,
// so values derived from existing state (pool occupancy, goroutine
// counts) need no shadow bookkeeping. Nil-safe no-op.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.family(name, help, TypeGauge, nil, nil, fn)
}

// CounterFunc registers a callback counter over an existing monotonic
// source (the pagestore's atomic I/O counters, GC totals). fn must be
// monotonically non-decreasing. Nil-safe no-op.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.family(name, help, TypeCounter, nil, nil, fn)
}

// Histogram returns the unlabeled histogram with the given name,
// creating it with the given bucket bounds (nil =
// DefaultLatencyBuckets) on first use. Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(name, bounds)
	}
	return r.family(name, help, TypeHistogram, nil, bounds, nil).child("").(*Histogram)
}

// CounterVec is a labeled counter family: one child counter per
// distinct label-value tuple (e.g. http_responses_total{path,code}).
type CounterVec struct {
	f *family
}

// CounterVec returns the labeled counter family with the given name
// and label schema. Nil-safe.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return &CounterVec{}
	}
	return &CounterVec{f: r.family(name, help, TypeCounter, labels, nil, nil)}
}

// With returns the child counter for the given label values (one per
// registered label, in schema order), creating it at zero on first
// use. The steady-state lookup is one lock-free map load.
func (v *CounterVec) With(values ...string) *Metric {
	if v == nil || v.f == nil {
		return &Metric{}
	}
	v.f.checkArity(len(values))
	return v.f.child(joinLabels(values)).(*Metric)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	f *family
}

// GaugeVec returns the labeled gauge family with the given name and
// label schema. Nil-safe.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return &GaugeVec{}
	}
	return &GaugeVec{f: r.family(name, help, TypeGauge, labels, nil, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return &Gauge{}
	}
	v.f.checkArity(len(values))
	return v.f.child(joinLabels(values)).(*Gauge)
}

// HistogramVec is a labeled histogram family (e.g.
// query_seconds{strategy="groupby"}). Every child shares the family's
// bucket bounds, so the exposition stays comparable across labels.
type HistogramVec struct {
	f *family
}

// HistogramVec returns the labeled histogram family with the given
// name, bucket bounds (nil = DefaultLatencyBuckets) and label schema.
// Nil-safe.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return &HistogramVec{}
	}
	return &HistogramVec{f: r.family(name, help, TypeHistogram, labels, bounds, nil)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return newHistogram("", nil)
	}
	v.f.checkArity(len(values))
	return v.f.child(joinLabels(values)).(*Histogram)
}

func (f *family) checkArity(n int) {
	if n != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q given %d label values, schema has %d (%v)", f.name, n, len(f.labels), f.labels))
	}
}

func joinLabels(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, labelSep...)
		}
		b = append(b, v...)
	}
	return string(b)
}

func splitLabels(key string) []string {
	if key == "" {
		return nil
	}
	var out []string
	for {
		i := indexByte(key, labelSep[0])
		if i < 0 {
			return append(out, key)
		}
		out = append(out, key[:i])
		key = key[i+1:]
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// sortedFamilies snapshots the families in name order — the
// deterministic iteration both renderers use.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	var fams []*family
	r.families.Range(func(_, v any) bool {
		fams = append(fams, v.(*family))
		return true
	})
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's children in label-key order.
func (f *family) sortedChildren() []childEntry {
	var out []childEntry
	f.children.Range(func(k, v any) bool {
		out = append(out, childEntry{key: k.(string), metric: v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type childEntry struct {
	key    string
	metric any
}

// Snapshot returns the current value of every unlabeled counter, keyed
// by name — the flat view older callers consume. Labeled families,
// gauges and histograms are exposed through WritePrometheus.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	out := map[string]int64{}
	for _, f := range r.sortedFamilies() {
		if f.typ != TypeCounter || len(f.labels) != 0 || f.fn != nil {
			continue
		}
		if c, ok := f.children.Load(""); ok {
			out[f.name] = c.(*Metric).Load()
		}
	}
	return out
}

// WriteText renders the registry in the terse text format: one
// "name value" line per sample, sorted by name. Counters and gauges
// print their value; histograms print _count, _sum and estimated
// p50/p95/p99 lines. Labeled children carry their label values in
// braces. This is the human-facing form; scrapers use WritePrometheus.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		for _, ce := range f.sortedChildren() {
			suffix := ""
			if len(f.labels) > 0 {
				suffix = "{" + formatLabels(f.labels, splitLabels(ce.key), "") + "}"
			}
			switch m := ce.metric.(type) {
			case *Metric:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, m.Load()); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix, formatFloat(m.Value())); err != nil {
					return err
				}
			case *Histogram:
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n%s_sum%s %s\n%s_p50%s %s\n%s_p95%s %s\n%s_p99%s %s\n",
					f.name, suffix, m.Count(),
					f.name, suffix, formatFloat(m.Sum()),
					f.name, suffix, formatFloat(m.Quantile(0.50)),
					f.name, suffix, formatFloat(m.Quantile(0.95)),
					f.name, suffix, formatFloat(m.Quantile(0.99))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
