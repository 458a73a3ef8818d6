package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"locshort/internal/cluster"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/store"
)

// serverOptions carries the observability wiring into newServer. The zero
// value is fully functional (tests construct servers without any of it):
// every field is optional and nil-guarded.
type serverOptions struct {
	reg    *obs.Registry // nil: GET /metrics serves 404, no HTTP metrics
	tracer *obs.Tracer   // nil: GET /v1/traces serves an empty list
	logger *obs.Logger   // nil: no request log lines
	// slowRequest escalates a request log line to warn level — with the
	// build's stage breakdown attached — when the request takes at least
	// this long. Zero disables the escalation.
	slowRequest time.Duration
	// ready gates the /v1/ API: until it reports true, /v1/ requests are
	// rejected with 503 and GET /readyz stays not-ready. nil: always ready.
	// main flips it after warm start, job recovery, and dispatcher start,
	// so a restarting daemon never serves cache misses it is about to
	// warm-fill, and CI can poll /readyz instead of sleeping. In cluster
	// mode main also folds in the config-drift guard, so a node booted
	// with a disagreeing ring config never reports ready.
	ready func() bool
	// cluster enables multi-node mode (see server.cl); nil single-node.
	cluster *cluster.Cluster
	// store is the durable store behind the engine (nil without -data);
	// the binary /v1/shortcuts path serves stored payloads straight from it.
	store *store.Store
}

// errStarting is the 503 body served on /v1/ routes before readiness.
var errStarting = errors.New("starting: warm start and job recovery in progress")

// httpMetrics is the per-route HTTP instrumentation: a latency histogram
// per route pattern and a counter per (route, status code) pair. Both are
// cached under an RWMutex keyed by comparable values, so steady-state
// requests take two read-locked map hits and touch only atomics — the
// Registry (which allocates a Labels map per lookup) is consulted only the
// first time a (route, code) appears.
type httpMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge

	mu     sync.RWMutex
	durs   map[string]*obs.Histogram
	counts map[routeCode]*obs.Counter
}

type routeCode struct {
	route string
	code  int
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		reg: reg,
		inFlight: reg.Gauge("locshort_http_in_flight",
			"Requests currently being served.", nil),
		durs:   make(map[string]*obs.Histogram),
		counts: make(map[routeCode]*obs.Counter),
	}
}

func (m *httpMetrics) observe(route string, code int, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.RLock()
	h := m.durs[route]
	c := m.counts[routeCode{route, code}]
	m.mu.RUnlock()
	if h == nil || c == nil {
		m.mu.Lock()
		if h = m.durs[route]; h == nil {
			h = m.reg.Histogram("locshort_http_request_seconds",
				"Wall time of HTTP requests, by route pattern.",
				nil, obs.Labels{"route": route})
			m.durs[route] = h
		}
		key := routeCode{route, code}
		if c = m.counts[key]; c == nil {
			c = m.reg.Counter("locshort_http_requests_total",
				"HTTP requests served, by route pattern and status code.",
				obs.Labels{"route": route, "code": strconv.Itoa(code)})
			m.counts[key] = c
		}
		m.mu.Unlock()
	}
	h.Observe(d)
	c.Inc()
}

// reqInfo is the per-request annotation record: it lives inline in the
// middleware's statusRecorder, and the shortcut handler fills it in from
// what execute and relay returned (annotate), so the request log line can
// say which graph and shortcut a request touched and which latency class
// served it. The fingerprints are rendered only when a line is logged. One
// goroutine owns a request, so the fields are unsynchronized.
type reqInfo struct {
	graph    service.Fingerprint
	shortcut service.Fingerprint
	source   string // "cache" | "store" | "peer" | "built" | "forward:<source>"; "" when unannotated
}

// annotate records a shortcut request's graph, key, and latency class on
// the writer's reqInfo, if w is the middleware's statusRecorder. The async
// dispatcher has no writer, so job execution annotates nothing.
func annotate(w http.ResponseWriter, graph, shortcut service.Fingerprint, source string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.info = reqInfo{graph: graph, shortcut: shortcut, source: source}
	}
}

// statusRecorder captures the response status for the request log and the
// per-(route, code) counters, and carries the request's annotation. A
// handler that never calls WriteHeader implicitly wrote 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
	info   reqInfo
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// recorderPool recycles the status recorders instrument wraps writers in:
// a handler is done with its writer when it returns.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps the whole mux: readiness gate, request ID, timing,
// per-route metrics, and one structured log line per request. It reads
// r.Pattern after the mux ran, so the route label is the registered
// pattern ("POST /v1/shortcuts"), never the raw URL — label cardinality
// stays bounded by the route table. It hands the mux the request it was
// given: the annotation rides on the writer, not in a context value, so
// no per-request context or request copy is made, and the writer comes
// from recorderPool.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.ready != nil && !s.ready() && strings.HasPrefix(r.URL.Path, "/v1/") &&
			!strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			// /v1/peer/ stays open while not ready: peers must be able to
			// compare ring configs (the drift that may be holding readiness
			// down clears only through this path) and pull records from a
			// warming node.
			s.httpError(w, http.StatusServiceUnavailable, errStarting)
			return
		}
		// The request ID exists for the log line; without a logger the
		// crypto/rand read per request is pure overhead on the warm path.
		id := ""
		if s.logger != nil {
			id = obs.NewRequestID()
		}
		start := time.Now()
		rec := recorderPool.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if s.metrics != nil {
			s.metrics.inFlight.Add(1)
		}
		// Deferred, so a handler panic, which the connection loop recovers
		// and answers 500, still lowers the in-flight gauge and is counted
		// and logged as a 500.
		returned := false
		defer func() {
			if !returned {
				rec.status = http.StatusInternalServerError
			}
			dur := time.Since(start)
			route := r.Pattern // set by the mux during ServeHTTP
			if route == "" {
				route = "unmatched"
			}
			if s.metrics != nil {
				s.metrics.inFlight.Add(-1)
				s.metrics.observe(route, rec.status, dur)
			}
			s.logRequest(id, route, rec.status, start, dur, &rec.info)
			*rec = statusRecorder{}
			recorderPool.Put(rec)
		}()
		next.ServeHTTP(rec, r)
		returned = true
	})
}

// logRequest emits the structured request line. Requests at or over the
// slow-request threshold escalate to warn and carry the build's per-stage
// breakdown, so a slow cold build is diagnosable from the log alone.
func (s *server) logRequest(id, route string, status int, start time.Time, dur time.Duration, ri *reqInfo) {
	if s.logger == nil {
		return
	}
	kv := make([]any, 0, 16)
	kv = append(kv, "id", id, "route", route, "code", status, "dur", dur)
	shortcut := ""
	if ri.source != "" {
		shortcut = ri.shortcut.String()
		kv = append(kv, "graph", ri.graph.String(), "shortcut", shortcut, "source", ri.source)
	}
	if s.slowRequest > 0 && dur >= s.slowRequest {
		if stages := s.stageSummary(shortcut, start); stages != "" {
			kv = append(kv, "stages", stages)
		}
		s.logger.Warn("slow_request", kv...)
		return
	}
	s.logger.Info("request", kv...)
}

// stageSummary renders the span breakdown of the most recent retained
// trace for the given shortcut key ("choose_root=1.2ms bfs_tree=...")
// that ended at or after start, when the request began, or "" when no
// such trace is retained. A request that started or joined the fill gets
// its stages; a cache hit, which ran none, does not get an older build's.
// Slow requests are rare, so a linear scan over the recent ring is fine.
func (s *server) stageSummary(shortcut string, start time.Time) string {
	if s.tracer == nil || shortcut == "" {
		return ""
	}
	for _, t := range s.tracer.Recent(0) {
		if t.Fingerprint != shortcut || t.Start+t.DurNs < start.UnixNano() {
			continue
		}
		parts := make([]string, len(t.Spans))
		for i, sp := range t.Spans {
			parts[i] = sp.Name + "=" + time.Duration(sp.DurNs).String()
		}
		return strings.Join(parts, " ")
	}
	return ""
}

// handleMetrics serves the Prometheus text exposition of every registered
// family: engine, builder stages, async jobs, durable store, and this
// HTTP layer. See OPERATIONS.md §Monitoring for the catalog.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obsReg == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obsReg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log.
		if s.logger != nil {
			s.logger.Error("metrics_write", "err", err.Error())
		}
	}
}

// handleTraces serves the retained build traces, newest first. ?n= bounds
// the count (default: everything retained).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad n %q: want a non-negative integer", ns))
			return
		}
		n = v
	}
	traces := []*obs.Trace{}
	if s.tracer != nil {
		traces = s.tracer.Recent(n)
	}
	s.writeJSON(w, map[string]any{"traces": traces})
}

// handleReadyz is the readiness probe: 200 once warm start, job recovery,
// and the async dispatchers are up; 503 before. Distinct from /healthz
// (liveness), which is 200 the moment the listener binds.
// In cluster mode the probe also fails while the ring configuration
// disagrees with a reachable peer's — a half-edited cluster rollout takes
// the node out of rotation instead of serving a split ring.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cl != nil && s.cl.Drift() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: ring config drift")
		return
	}
	if s.ready != nil && !s.ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
		return
	}
	fmt.Fprintln(w, "ready")
}
