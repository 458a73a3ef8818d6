package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric type names, as rendered on the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Labels is a label set attached to one series at registration time. Label
// values are escaped at exposition; names must be valid Prometheus label
// names (the caller's responsibility — all call sites use literals).
type Labels map[string]string

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// a no-op: every method tolerates it, so unobserved layers record
// unconditionally and pay only the nil check (the obsnil analyzer
// enforces this).
//
//locshort:nilsafe
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//locshort:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
//locshort:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a no-op, like
// every obs instrument.
//
//locshort:nilsafe
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets is the default latency histogram layout: 100µs to 10s in
// roughly 2.5x steps, chosen so both a warm cache hit (~1ms) and a cold
// grid:64x64 build (~13ms) land mid-range with resolution on either side.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Bounds are upper bounds in
// seconds, strictly increasing; an implicit +Inf bucket catches the rest.
// Observe is wait-free: one linear scan over at most len(bounds) floats and
// two atomic adds, no allocation. A nil *Histogram is a no-op, like every
// obs instrument.
//
//locshort:nilsafe
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumNs  atomic.Int64
	n      atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
//
//locshort:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.n.Add(1)
}

// Snapshot captures a consistent-enough copy for quantile estimation and
// merging (buckets are read independently; a scrape racing observations can
// be off by the in-flight observation, like any atomic counter set).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		SumNs:  h.sumNs.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the +Inf bucket last.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1
	SumNs  int64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Sub subtracts an earlier snapshot of the same histogram, yielding the
// interval histogram between two scrapes (what `locshortctl top` shows per
// refresh). Counts that would go negative clamp to zero (a counter reset —
// daemon restart between scrapes).
func (s HistogramSnapshot) Sub(earlier HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts)), SumNs: s.SumNs - earlier.SumNs}
	for i := range s.Counts {
		if i < len(earlier.Counts) && earlier.Counts[i] <= s.Counts[i] {
			out.Counts[i] = s.Counts[i] - earlier.Counts[i]
		} else if i >= len(earlier.Counts) {
			out.Counts[i] = s.Counts[i]
		}
	}
	if out.SumNs < 0 {
		out.SumNs = 0
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q <= 1) in seconds by linear
// interpolation within the containing bucket — the standard Prometheus
// histogram_quantile estimate. Observations in the +Inf bucket report the
// highest finite bound (the estimate saturates there). Returns 0 for an
// empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket: saturate at the last finite bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// series is one (label set, collector) under a family. Exactly one of the
// collector fields is set.
type series struct {
	labels string // pre-rendered `{a="b"}` form, "" for unlabeled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name; HELP and TYPE are
// emitted once per family.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is get-or-create: asking for an existing
// (name, labels) pair of the same type returns the same metric, so layers
// can register lazily from request paths (the HTTP layer's per-status
// counters). Type conflicts panic — they are programming errors, caught the
// first time the conflicting code path runs.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) get(labels string) *series { return f.byLabels[labels] }

func (f *family) add(s *series) {
	f.byLabels[s.labels] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typeCounter)
	ls := renderLabels(labels)
	if s := f.get(ls); s != nil {
		if s.c == nil {
			panic(fmt.Sprintf("obs: metric %s%s is func-backed, not a Counter", name, ls))
		}
		return s.c
	}
	s := &series{labels: ls, c: &Counter{}}
	f.add(s)
	return s.c
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typeGauge)
	ls := renderLabels(labels)
	if s := f.get(ls); s != nil {
		if s.g == nil {
			panic(fmt.Sprintf("obs: metric %s%s is func-backed, not a Gauge", name, ls))
		}
		return s.g
	}
	s := &series{labels: ls, g: &Gauge{}}
	f.add(s)
	return s.g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the no-dual-write path for layers that already keep their own
// atomic counters (service.Engine, internal/jobs). fn must be safe for
// concurrent use and monotonic for the exposition to be honest.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, typeCounter, labels, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, typeGauge, labels, fn)
}

func (r *Registry) registerFunc(name, help, typ string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	ls := renderLabels(labels)
	if f.get(ls) != nil {
		panic(fmt.Sprintf("obs: metric %s%s registered twice", name, ls))
	}
	f.add(&series{labels: ls, fn: fn})
}

// Histogram returns the histogram registered under (name, labels), creating
// it with the given bucket bounds (nil: DefBuckets) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typeHistogram)
	ls := renderLabels(labels)
	if s := f.get(ls); s != nil {
		return s.h
	}
	s := &series{labels: ls, h: newHistogram(bounds)}
	f.add(s)
	return s.h
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name and, within a family, by label string, so
// successive scrapes of an unchanged registry are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
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
	// Collector reads happen outside the registry lock: func-backed series
	// may take their owning layer's locks, and nothing below mutates the
	// registry (series slices are append-only and swapped under mu).
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(&b, f.name, s.labels, "", formatValue(float64(s.c.Value())))
			case s.g != nil:
				writeSample(&b, f.name, s.labels, "", formatValue(float64(s.g.Value())))
			case s.fn != nil:
				writeSample(&b, f.name, s.labels, "", formatValue(s.fn()))
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one line: name{labels,extra} value.
func writeSample(b *strings.Builder, name, labels, extra, value string) {
	b.WriteString(name)
	switch {
	case labels == "" && extra == "":
	case labels == "":
		b.WriteByte('{')
		b.WriteString(extra)
		b.WriteByte('}')
	case extra == "":
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	default:
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte(',')
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		writeSample(b, name+"_bucket", labels,
			`le="`+formatValue(bound)+`"`, strconv.FormatUint(cum, 10))
	}
	cum += s.Counts[len(s.Bounds)]
	writeSample(b, name+"_bucket", labels, `le="+Inf"`, strconv.FormatUint(cum, 10))
	writeSample(b, name+"_sum", labels, "", formatValue(float64(s.SumNs)/1e9))
	writeSample(b, name+"_count", labels, "", strconv.FormatUint(cum, 10))
}

// formatValue renders a float the shortest way that round-trips; whole
// numbers come out without a decimal point, as Prometheus expects of
// counters.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders a label set in sorted-key order with escaped values:
// `a="x",b="y"` (no braces — writeSample adds them).
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the label-value escaping of the text format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies HELP-text escaping: backslash and newline (quotes are
// legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
