package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	// Exactly on a bound lands in that bucket (le = upper bound, inclusive).
	h.Observe(1 * time.Millisecond)   // bucket 0
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(10 * time.Millisecond)  // bucket 1
	h.Observe(99 * time.Millisecond)  // bucket 2
	h.Observe(5 * time.Second)        // +Inf
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if got := s.Count(); got != 6 {
		t.Errorf("Count() = %d, want 6", got)
	}
	wantSum := (1 + 2 + 10 + 99 + 5000 + 0.5) * 1e6 // ns
	if float64(s.SumNs) != wantSum {
		t.Errorf("SumNs = %d, want %g", s.SumNs, wantSum)
	}
}

func TestHistogramBoundsMustIncrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-increasing bounds")
		}
	}()
	newHistogram([]float64{0.1, 0.1})
}

func TestHistogramSub(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	early := h.Snapshot()
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	late := h.Snapshot()
	d := late.Sub(early)
	if d.Counts[0] != 0 || d.Counts[1] != 2 || d.Counts[2] != 0 {
		t.Errorf("interval counts %v, want [0 2 0]", d.Counts)
	}
	if d.SumNs != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("interval SumNs = %d", d.SumNs)
	}
	// Reset (earlier > later) clamps to zero rather than underflowing.
	r := early.Sub(late)
	for i, c := range r.Counts {
		if c != 0 {
			t.Errorf("reset bucket %d = %d, want 0", i, c)
		}
	}
	if r.SumNs != 0 {
		t.Errorf("reset SumNs = %d, want 0", r.SumNs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", q)
	}
	// 100 observations uniformly in (1ms, 10ms]: p50 interpolates to ~5.5ms.
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 0.001 || p50 > 0.01 {
		t.Errorf("p50 = %g, want within (0.001, 0.01]", p50)
	}
	// Everything in one bucket: p99 stays in that bucket too.
	if p99 := s.Quantile(0.99); p99 < 0.001 || p99 > 0.01 {
		t.Errorf("p99 = %g, want within (0.001, 0.01]", p99)
	}
	// +Inf observations saturate at the last finite bound.
	h2 := newHistogram([]float64{0.001})
	h2.Observe(time.Second)
	if q := h2.Snapshot().Quantile(0.99); q != 0.001 {
		t.Errorf("+Inf-bucket quantile = %g, want 0.001 (saturated)", q)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", Labels{"a": "1"})
	c2 := r.Counter("x_total", "help", Labels{"a": "1"})
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	c3 := r.Counter("x_total", "help", Labels{"a": "2"})
	if c1 == c3 {
		t.Error("distinct labels returned the same counter")
	}
	h1 := r.Histogram("y_seconds", "help", nil, nil)
	h2 := r.Histogram("y_seconds", "help", nil, nil)
	if h1 != h2 {
		t.Error("same histogram name returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge type conflict")
		}
	}()
	r.Gauge("x_total", "help", nil)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counter", nil).Add(3)
	r.Gauge("a_gauge", "a gauge", Labels{"route": "/v1/shortcut"}).Set(-2)
	r.GaugeFunc("c_func", "func gauge", nil, func() float64 { return 1.5 })
	h := r.Histogram("d_seconds", "latency", []float64{0.001, 0.01}, Labels{"source": "build"})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Second)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := strings.Join([]string{
		"# HELP a_gauge a gauge",
		"# TYPE a_gauge gauge",
		`a_gauge{route="/v1/shortcut"} -2`,
		"# HELP b_total b counter",
		"# TYPE b_total counter",
		"b_total 3",
		"# HELP c_func func gauge",
		"# TYPE c_func gauge",
		"c_func 1.5",
		"# HELP d_seconds latency",
		"# TYPE d_seconds histogram",
		`d_seconds_bucket{source="build",le="0.001"} 1`,
		`d_seconds_bucket{source="build",le="0.01"} 2`,
		`d_seconds_bucket{source="build",le="+Inf"} 3`,
		`d_seconds_sum{source="build"} 5.0055`,
		`d_seconds_count{source="build"} 3`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "help with \\ backslash\nand newline",
		Labels{"g": "grid:8x8\"quoted\\back\nline"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	wantHelp := `# HELP esc_total help with \\ backslash\nand newline`
	wantLine := `esc_total{g="grid:8x8\"quoted\\back\nline"} 1`
	if !strings.Contains(got, wantHelp) {
		t.Errorf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, wantLine) {
		t.Errorf("label value not escaped:\n%s", got)
	}
	// The escaped output must round-trip through the parser.
	sc, err := ParsePrometheus(strings.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := sc.Value("esc_total", Labels{"g": "grid:8x8\"quoted\\back\nline"})
	if !ok || v != 1 {
		t.Errorf("escaped label did not round-trip: ok=%v v=%g", ok, v)
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_hits_total", "hits", Labels{"source": "cache"}).Add(42)
	h := r.Histogram("req_seconds", "latency", []float64{0.001, 0.01, 0.1}, Labels{"route": "/v1/shortcut"})
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	h.Observe(50 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("engine_hits_total", Labels{"source": "cache"}); !ok || v != 42 {
		t.Errorf("counter round-trip: ok=%v v=%g", ok, v)
	}
	if !sc.HasFamily("req_seconds") {
		t.Error("HasFamily(req_seconds) = false")
	}
	snap, ok := sc.Histogram("req_seconds", Labels{"route": "/v1/shortcut"})
	if !ok {
		t.Fatal("histogram not reconstructed")
	}
	if got := snap.Count(); got != 11 {
		t.Errorf("reconstructed count %d, want 11", got)
	}
	if len(snap.Bounds) != 3 || snap.Bounds[2] != 0.1 {
		t.Errorf("reconstructed bounds %v", snap.Bounds)
	}
	if snap.Counts[1] != 10 || snap.Counts[2] != 1 {
		t.Errorf("reconstructed counts %v, want [0 10 1 0]", snap.Counts)
	}
	wantSum := (10*5 + 50) * 1e6 // ns
	if math.Abs(float64(snap.SumNs)-wantSum) > 1e3 {
		t.Errorf("reconstructed SumNs %d, want ~%g", snap.SumNs, wantSum)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 0.01 || p99 > 0.1 {
		t.Errorf("reconstructed p99 = %g, want within (0.01, 0.1]", p99)
	}
}

func TestParsePrometheusErrors(t *testing.T) {
	for _, bad := range []string{
		"just words without value structure",
		`m{l="unterminated} 1`,
		"m notanumber",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
	// HTML (scraping the wrong endpoint) must fail loudly.
	if _, err := ParsePrometheus(strings.NewReader("<html><body>404</body></html>")); err == nil {
		t.Error("no error for HTML input")
	}
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "h", nil)
	g := r.Gauge("hot_gauge", "h", nil)
	h := r.Histogram("hot_seconds", "h", nil, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(7)
		g.Add(-1)
		h.Observe(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("hot-path recording allocates %.1f per op, want 0", allocs)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		b := StartTrace("build", time.Now())
		b.Add("csr", 0, time.Millisecond)
		tr.Publish(b.Finish())
	}
	if tr.Published() != 5 {
		t.Errorf("Published() = %d, want 5", tr.Published())
	}
	recent := tr.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("Recent(0) returned %d traces, want 3 (ring capacity)", len(recent))
	}
	for _, x := range recent {
		if x.Op != "build" || len(x.Spans) != 1 {
			t.Errorf("trace %+v malformed", x)
		}
		if x.Spans[0].Name != "csr" || x.Spans[0].DurNs != time.Millisecond.Nanoseconds() {
			t.Errorf("span %+v malformed", x.Spans[0])
		}
	}
	if got := tr.Recent(2); len(got) != 2 {
		t.Errorf("Recent(2) returned %d traces", len(got))
	}
	// Nil tracer is a no-op, not a crash.
	var nilTr *Tracer
	nilTr.Publish(&Trace{})
	if nilTr.Recent(1) != nil || nilTr.Published() != 0 {
		t.Error("nil tracer not inert")
	}
}

func TestTraceBuilderSpans(t *testing.T) {
	b := StartTrace("build", time.Now())
	done := b.Span("bfs_tree")
	time.Sleep(2 * time.Millisecond)
	done()
	b.SetFingerprint("abc123")
	tr := b.Finish()
	if len(tr.Spans) != 1 {
		t.Fatalf("%d spans, want 1", len(tr.Spans))
	}
	sp := tr.Spans[0]
	if sp.Name != "bfs_tree" || sp.DurNs < time.Millisecond.Nanoseconds() {
		t.Errorf("span %+v: want bfs_tree with >=1ms", sp)
	}
	if tr.DurNs < sp.DurNs {
		t.Errorf("trace DurNs %d < span DurNs %d", tr.DurNs, sp.DurNs)
	}
	if tr.Fingerprint != "abc123" || tr.ID == "" {
		t.Errorf("trace annotations missing: %+v", tr)
	}
}

func TestLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Info("request", "id", "abc", "route", "/v1/shortcut", "dur", 1500*time.Microsecond)
	l.Warn("slow request", "graph", "grid:64x64 big", "n", 3)
	got := sb.String()
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2: %q", len(lines), got)
	}
	if want := `2026-08-08T12:00:00Z level=info msg=request id=abc route=/v1/shortcut dur=1.5ms`; lines[0] != want {
		t.Errorf("line 1 = %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], `graph="grid:64x64 big"`) {
		t.Errorf("value with space not quoted: %q", lines[1])
	}
	if !strings.Contains(lines[1], "level=warn") {
		t.Errorf("warn level missing: %q", lines[1])
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Error("consecutive request IDs collide")
	}
	for _, id := range []string{a, b} {
		if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Errorf("ID %q: want 16 lowercase hex chars", id)
		}
	}
	want := 1.0
	if raceEnabled {
		want = 2 // crypto/rand's buffer escapes in race builds
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewRequestID() }); n != want {
		t.Errorf("NewRequestID: %.1f allocs/op, want %.0f", n, want)
	}
}

// TestStartTraceBackdated: a trace made after its operation began counts
// its start and every offset from the start it was given.
func TestStartTraceBackdated(t *testing.T) {
	start := time.Now().Add(-5 * time.Millisecond)
	b := StartTrace("build", start)
	if el := b.Elapsed(); el < 5*time.Millisecond {
		t.Errorf("Elapsed = %v on a trace begun 5ms ago", el)
	}
	b.Add("store_check", 0, time.Millisecond)
	tr := b.Finish()
	if tr.Start != start.UnixNano() || tr.DurNs < (5*time.Millisecond).Nanoseconds() {
		t.Errorf("trace start %d dur %d, want start %d and >= 5ms", tr.Start, tr.DurNs, start.UnixNano())
	}
}
