package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// syncBuffer is a goroutine-safe log sink: the request log line is written
// after the handler returns, which can race the client seeing the response.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// eventually polls cond for up to 5s: post-response bookkeeping (metrics
// observation, log write) runs after the handler returns, so immediate
// assertions on it would race.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// scrape fetches and parses GET /metrics, failing the test on transport,
// status, or exposition-format errors — so a scrape that returns HTML or
// malformed lines fails here rather than silently passing HasFamily checks.
func scrape(t *testing.T, url string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	sc, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return sc
}

// TestObservabilityEndToEnd drives a cold build and a warm hit through the
// full HTTP stack with every subsystem instrumented, then asserts the
// /metrics exposition covers all four metric families (engine, builder
// stages, async jobs, durable store) plus the HTTP layer, and that
// /v1/traces retains the cold build with every Builder stage timed.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	logbuf := &syncBuffer{}
	st, err := store.Open(t.TempDir(), store.Options{Obs: reg, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st, Obs: reg, Tracer: tracer})
	srv, h := newServer(eng, jobs.Config{Store: st, Obs: reg}, serverOptions{
		reg:    reg,
		tracer: tracer,
		logger: obs.NewLogger(logbuf),
	})
	srv.mgr.Start()
	ts := serveLoop(t, h)
	t.Cleanup(func() {
		ts.Close()
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
	build := map[string]any{"graph": g.Graph, "partition": "blobs:8", "seed": 3}
	var cold, warm struct {
		Shortcut string `json:"shortcut"`
		Cached   bool   `json:"cached"`
		Source   string `json:"source"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, &cold)
	if cold.Cached || cold.Source != "built" {
		t.Fatalf("cold build: cached=%v source=%q, want fresh built", cold.Cached, cold.Source)
	}
	postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, &warm)
	if !warm.Cached || warm.Source != "cache" {
		t.Fatalf("warm hit: cached=%v source=%q, want cache hit", warm.Cached, warm.Source)
	}

	// One async job so the jobs layer has non-zero traffic to report.
	var job struct {
		ID string `json:"id"`
	}
	postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"kind": "mst", "graph": g.Graph, "async": true,
	}, http.StatusAccepted, &job)
	eventually(t, "async job reaches done", func() bool {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "?wait=2s")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var v struct {
			State string `json:"state"`
		}
		if err := decodeBody(resp, &v); err != nil {
			return false
		}
		return v.State == "done"
	})

	sc := scrape(t, ts.URL)
	// Engine: exactly one construction, one hit, one miss from the two
	// synchronous requests (the async MST reuses the cached shortcut's
	// graph and builds nothing).
	if v, ok := sc.Value("locshort_engine_builds_total", nil); !ok || v != 1 {
		t.Errorf("locshort_engine_builds_total = %v, %v; want 1", v, ok)
	}
	if v, ok := sc.Value("locshort_engine_cache_hits_total", nil); !ok || v < 1 {
		t.Errorf("locshort_engine_cache_hits_total = %v, %v; want >= 1", v, ok)
	}
	if v, ok := sc.Value("locshort_engine_cache_misses_total", nil); !ok || v < 1 {
		t.Errorf("locshort_engine_cache_misses_total = %v, %v; want >= 1", v, ok)
	}
	if h, ok := sc.Histogram("locshort_engine_build_seconds", nil); !ok || h.Count() != 1 {
		t.Errorf("locshort_engine_build_seconds count = %d, %v; want 1", h.Count(), ok)
	}
	// Builder stages: the singleton stages observed exactly once, levels
	// at least once.
	for _, stage := range []string{"choose_root", "bfs_tree", "sweep", "assemble"} {
		if h, ok := sc.Histogram("locshort_builder_stage_seconds", obs.Labels{"stage": stage}); !ok || h.Count() != 1 {
			t.Errorf("builder stage %q count = %d, %v; want 1", stage, h.Count(), ok)
		}
	}
	if h, ok := sc.Histogram("locshort_builder_stage_seconds", obs.Labels{"stage": "level"}); !ok || h.Count() < 1 {
		t.Errorf("builder stage \"level\" count = %d, %v; want >= 1", h.Count(), ok)
	}
	// Jobs and store layers.
	if v, ok := sc.Value("locshort_jobs_submitted_total", nil); !ok || v != 1 {
		t.Errorf("locshort_jobs_submitted_total = %v, %v; want 1", v, ok)
	}
	if v, ok := sc.Value("locshort_jobs_finished_total", obs.Labels{"outcome": "done"}); !ok || v != 1 {
		t.Errorf("locshort_jobs_finished_total{outcome=done} = %v, %v; want 1", v, ok)
	}
	if v, ok := sc.Value("locshort_store_appends_total", obs.Labels{"kind": "shortcut"}); !ok || v != 1 {
		t.Errorf("locshort_store_appends_total{kind=shortcut} = %v, %v; want 1", v, ok)
	}
	for _, fam := range []string{
		"locshort_engine_measure_seconds", "locshort_engine_persist_seconds",
		"locshort_jobs_exec_seconds", "locshort_jobs_queue_wait_seconds",
		"locshort_store_append_seconds", "locshort_store_segments",
		"locshort_engine_queue_depth", "locshort_engine_cache_entries",
	} {
		if !sc.HasFamily(fam) {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	// HTTP layer: both synchronous builds observed under the route pattern
	// (post-response bookkeeping, so poll).
	eventually(t, "http request metrics observed", func() bool {
		sc := scrape(t, ts.URL)
		v, ok := sc.Value("locshort_http_requests_total",
			obs.Labels{"route": "POST /v1/shortcuts", "code": "200"})
		if !ok || v != 2 {
			return false
		}
		h, ok := sc.Histogram("locshort_http_request_seconds",
			obs.Labels{"route": "POST /v1/shortcuts"})
		return ok && h.Count() == 2
	})

	// /v1/traces: the cold build's trace, newest-first, with the store
	// probe, every Builder stage, and the quality measurement timed.
	resp, err := http.Get(ts.URL + "/v1/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := decodeBody(resp, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 1 {
		t.Fatalf("got %d traces, want 1 (only the cold build publishes)", len(tr.Traces))
	}
	trace := tr.Traces[0]
	if trace.Op != "build" || trace.Fingerprint != cold.Shortcut {
		t.Errorf("trace op=%q fp=%q, want build/%s", trace.Op, trace.Fingerprint, cold.Shortcut)
	}
	spans := make(map[string]bool, len(trace.Spans))
	sawLevel := false
	for _, sp := range trace.Spans {
		spans[sp.Name] = true
		if strings.HasPrefix(sp.Name, "level(d=") {
			sawLevel = true
		}
		if sp.DurNs < 0 || sp.StartNs < 0 {
			t.Errorf("span %q has negative timing: start=%d dur=%d", sp.Name, sp.StartNs, sp.DurNs)
		}
	}
	for _, want := range []string{"store_check", "choose_root", "bfs_tree", "sweep", "assemble", "measure"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (have %v)", want, trace.Spans)
		}
	}
	if !sawLevel {
		t.Errorf("trace has no level(d=N) span: %v", trace.Spans)
	}

	// Request log: one info line per request with ID, route, and the
	// latency class that served it.
	eventually(t, "request log lines written", func() bool {
		s := logbuf.String()
		return strings.Contains(s, "route=\"POST /v1/shortcuts\"") &&
			strings.Contains(s, "source=built") && strings.Contains(s, "source=cache") &&
			strings.Contains(s, "id=")
	})
}

// decodeBody drains and closes an http.Response body into out.
func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestSlowRequestWarn sets the slow-request threshold to one nanosecond so
// every request trips it, and asserts the escalated warn line carries the
// per-stage breakdown of the build it served: with the measurement for a
// JSON answer, and without it for a binary one, whose fill measures
// nothing but still publishes its trace. A cache hit ran no stages, and
// its line carries none.
func TestSlowRequestWarn(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	logbuf := &syncBuffer{}
	eng := service.New(service.Config{Workers: 2, Obs: reg, Tracer: tracer})
	srv, h := newServer(eng, jobs.Config{}, serverOptions{
		reg:         reg,
		tracer:      tracer,
		logger:      obs.NewLogger(logbuf),
		slowRequest: time.Nanosecond,
	})
	srv.mgr.Start()
	ts := serveLoop(t, h)
	t.Cleanup(func() {
		ts.Close()
		srv.mgr.Close()
		eng.Close()
	})

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:4"}, http.StatusOK, nil)
	eventually(t, "slow_request warn with stage breakdown", func() bool {
		s := logbuf.String()
		return strings.Contains(s, "level=warn") && strings.Contains(s, "msg=slow_request") &&
			strings.Contains(s, "choose_root=") && strings.Contains(s, "measure=")
	})

	var hit struct {
		Source string `json:"source"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:4"}, http.StatusOK, &hit)
	if hit.Source != "cache" {
		t.Fatalf("repeated request served from %q, want cache", hit.Source)
	}
	eventually(t, "cache-hit slow_request warn", func() bool {
		return strings.Contains(logbuf.String(), "source=cache")
	})
	for _, line := range strings.Split(logbuf.String(), "\n") {
		if strings.Contains(line, "source=cache") && strings.Contains(line, "stages=") {
			t.Errorf("a cache hit's warn line carries an earlier build's stages: %s", line)
		}
	}

	fp, err := service.ParseFingerprint(g.Graph)
	if err != nil {
		t.Fatal(err)
	}
	resp := doBinary(t, "POST", ts.URL+"/v1/shortcuts",
		wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: "blobs:4", Seed: 2}), nil)
	resp.Body.Close()
	key := resp.Header.Get(wire.HeaderKey)
	if resp.StatusCode != http.StatusOK || key == "" {
		t.Fatalf("binary shortcut: status %d, key %q", resp.StatusCode, key)
	}
	eventually(t, "binary slow_request warn with stage breakdown", func() bool {
		for _, line := range strings.Split(logbuf.String(), "\n") {
			if strings.Contains(line, "msg=slow_request") && strings.Contains(line, "shortcut="+key) {
				return strings.Contains(line, "choose_root=") && !strings.Contains(line, "measure=")
			}
		}
		return false
	})
}

// TestReadyzGate proves the readiness gate: before ready flips, /v1/
// requests bounce with 503 and /readyz reports starting while /healthz
// stays 200; after the flip everything serves.
func TestReadyzGate(t *testing.T) {
	var ready atomic.Bool
	eng := service.New(service.Config{Workers: 1})
	srv, h := newServer(eng, jobs.Config{}, serverOptions{ready: ready.Load})
	srv.mgr.Start()
	ts := serveLoop(t, h)
	t.Cleanup(func() {
		ts.Close()
		srv.mgr.Close()
		eng.Close()
	})

	status := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{"spec":"grid:4x4"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("GET", "/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz before ready = %d, want 503", got)
	}
	if got := status("GET", "/healthz"); got != http.StatusOK {
		t.Errorf("GET /healthz before ready = %d, want 200 (liveness is not readiness)", got)
	}
	if got := status("POST", "/v1/graphs"); got != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/graphs before ready = %d, want 503", got)
	}
	ready.Store(true)
	if got := status("GET", "/readyz"); got != http.StatusOK {
		t.Errorf("GET /readyz after ready = %d, want 200", got)
	}
	if got := status("POST", "/v1/graphs"); got != http.StatusOK {
		t.Errorf("POST /v1/graphs after ready = %d, want 200", got)
	}
}

// TestPanicAnswers500WithoutStack sends a recovered panic, wrapped as a
// request error, through the daemon's error path: the client gets a 500
// naming the panic but not its stack, and the log gets the stack once.
func TestPanicAnswers500WithoutStack(t *testing.T) {
	logbuf := &syncBuffer{}
	s := &server{logger: obs.NewLogger(logbuf)}
	var pe *obs.PanicError
	func() {
		defer func() { pe = obs.Recovered(recover()) }()
		panic("index out of range")
	}()
	err := fmt.Errorf("request 0: %w", pe)
	rec := httptest.NewRecorder()
	s.httpError(rec, statusFor(err), err)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "panic: index out of range") || strings.Contains(body, "goroutine") {
		t.Errorf("body %q: want the panic without its stack", body)
	}
	logs := logbuf.String()
	if n := strings.Count(logs, "msg=panic"); n != 1 || !strings.Contains(logs, "goroutine") {
		t.Errorf("log %q: want one panic line carrying the stack", logs)
	}
}

// TestInstrumentCountsPanics serves a panicking route through
// instrument and the connection loop: after the panic's 500, the
// in-flight gauge is back where it was before the request, and the
// request is counted and logged as a 500.
func TestInstrumentCountsPanics(t *testing.T) {
	reg := obs.NewRegistry()
	logbuf := &syncBuffer{}
	s := &server{obsReg: reg, metrics: newHTTPMetrics(reg), logger: obs.NewLogger(logbuf)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	ts := serveLoop(t, s.instrument(mux))
	ts.srv.logger = s.logger
	t.Cleanup(ts.Close)

	inFlight := func() float64 {
		t.Helper()
		v, ok := scrape(t, ts.URL).Value("locshort_http_in_flight", nil)
		if !ok {
			t.Fatal("no locshort_http_in_flight in /metrics")
		}
		return v
	}
	before := inFlight() // the scrape itself is in flight
	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /panic: %d, want 500", resp.StatusCode)
	}
	if after := inFlight(); after != before {
		t.Errorf("locshort_http_in_flight %v after the panic, %v before it", after, before)
	}
	if n, _ := scrape(t, ts.URL).Value("locshort_http_requests_total",
		obs.Labels{"route": "GET /panic", "code": "500"}); n != 1 {
		t.Errorf(`locshort_http_requests_total{route="GET /panic",code="500"} = %v, want 1`, n)
	}
	if logs := logbuf.String(); !strings.Contains(logs, `route="GET /panic" code=500`) {
		t.Errorf("no request line for the panic:\n%s", logs)
	}
}
