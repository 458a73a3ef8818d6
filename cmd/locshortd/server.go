package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// server wires the service engine and the async job manager to the HTTP
// API. Handlers are thin: decode, translate fingerprints, call the engine,
// encode. Request execution is factored into serveShortcut/runJob so the
// synchronous handlers and the async dispatcher run the identical path;
// all concurrency control (worker pool, cache, singleflight, job queue)
// lives in internal/service and internal/jobs.
type server struct {
	eng   *service.Engine
	mgr   *jobs.Manager
	start time.Time
	// cl is the cluster view in multi-node mode (nil single-node): the
	// request router relays misdirected build requests to the key's ring
	// owner, ingested graphs broadcast to peers, and /v1/peer/ serves the
	// internal record-exchange API.
	cl *cluster.Cluster
	// st is the durable store when the daemon runs with -data (nil
	// otherwise): the binary /v1/shortcuts response path serves the stored
	// canonical payload from it — zero-copy off a mapped segment — instead
	// of re-encoding the cached result.
	st *store.Store
	// encodeErrs counts response encode/write failures
	// (locshort_http_encode_errors_total).
	encodeErrs atomic.Uint64
	// Observability wiring (see obs.go); all optional, nil when the server
	// is constructed with a zero serverOptions.
	obsReg      *obs.Registry
	tracer      *obs.Tracer
	logger      *obs.Logger
	metrics     *httpMetrics
	slowRequest time.Duration
	ready       func() bool
	// keys memoizes the (graph, partition spec, seed, options) → shortcut
	// key translation, which is deterministic but costs a partition parse
	// (a BFS) and a hash over it per request; without it, partition
	// parsing dominates cache-hit latency. It holds keys, not partitions:
	// an entry is a few dozen bytes, and a partition lives only as long
	// as the cache entry built or loaded with it. The memo stops growing
	// at keyMemoLimit entries and skips specs longer than keyMemoSpec, so
	// distinct requests cannot grow it without bound (beyond either,
	// requests just parse). Entries are evicted when their graph is
	// deleted: a stale entry would name a key parsed against a graph
	// instance the engine no longer holds.
	keysMu sync.RWMutex
	keys   map[keyMemoKey]service.Fingerprint
	// strs interns the partition spec and options of shortcut request
	// bodies, JSON and binary, so a repeat request decodes without
	// allocating: at most keyMemoLimit strings of at most keyMemoSpec
	// bytes, ordinary heap copies. Nothing decoded aliases the pooled
	// body, which the next request overwrites while a memo hit's Spec may
	// still be parsed by a fill on an engine worker.
	strs *wire.Interner
}

// keyMemoKey is one memoized request shape; a struct key, so a lookup
// allocates nothing. The graph is the parsed fingerprint, so every
// accepted spelling of it shares one entry, and DELETE sweeps it by value.
type keyMemoKey struct {
	graph   service.Fingerprint
	spec    string
	seed    int64
	options string
}

// keyMemoLimit caps the key memo; far above any realistic working set
// (the shortcut cache holds far fewer entries anyway). keyMemoSpec caps
// the spec and options bytes one entry may retain. The request-string
// intern table has the same two bounds.
const (
	keyMemoLimit = 4096
	keyMemoSpec  = 256
)

// newServer builds the HTTP API over eng plus an async job manager
// configured by jcfg. The caller owns the manager lifecycle: Recover
// (after the engine's WarmStart) and Start before serving, Close on
// shutdown before the engine closes. o wires the observability layer —
// the zero value serves the API with no instrumentation.
func newServer(eng *service.Engine, jcfg jobs.Config, o serverOptions) (*server, http.Handler) {
	s := &server{
		eng:         eng,
		start:       time.Now(),
		obsReg:      o.reg,
		tracer:      o.tracer,
		logger:      o.logger,
		metrics:     newHTTPMetrics(o.reg),
		slowRequest: o.slowRequest,
		ready:       o.ready,
		cl:          o.cluster,
		st:          o.store,
		keys:        make(map[keyMemoKey]service.Fingerprint),
		strs:        wire.NewInterner(keyMemoLimit, keyMemoSpec),
	}
	if o.reg != nil {
		o.reg.CounterFunc("locshort_http_encode_errors_total",
			"Response encode or write failures (previously dropped silently).",
			nil, func() float64 { return float64(s.encodeErrs.Load()) })
		// Cumulative heap allocation count: cmd/locshortbench samples it
		// around a run for server_allocs_per_req without attaching a
		// profiler.
		o.reg.CounterFunc("locshort_go_mallocs_total",
			"Cumulative heap objects allocated (runtime.MemStats.Mallocs).",
			nil, func() float64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.Mallocs)
			})
	}
	if jcfg.Logger == nil {
		jcfg.Logger = o.logger
	}
	s.mgr = jobs.New(jcfg, s.execAsync)
	mux := http.NewServeMux()
	if s.cl != nil {
		// Internal peer API; exempt from the readiness gate (peers compare
		// ring configs and pull records while this node warms up).
		mux.Handle("/v1/peer/", s.cl.Handler())
	}
	mux.HandleFunc("POST /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	mux.HandleFunc("DELETE /v1/graphs/{fp}", s.handleGraphDelete)
	mux.HandleFunc("POST /v1/shortcuts", s.handleShortcuts)
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s, s.instrument(mux)
}

// pooledEncoder pairs a reusable buffer with a json.Encoder bound to it.
// Encoding into a pooled buffer and writing once replaces the old
// per-response json.NewEncoder(w) — one allocation-heavy construction per
// request on the warm path — and gives every response a single Write whose
// error is actually checked.
type pooledEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &pooledEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledBuf keeps one giant response (a full job listing, say) from
// pinning its buffer in the pool forever.
const maxPooledBuf = 1 << 20

// writeJSONStatus encodes v through the encoder pool and writes it with
// the given status (0: implicit 200). Encode and write failures — silently
// dropped before — are logged and counted in
// locshort_http_encode_errors_total.
func (s *server) writeJSONStatus(w http.ResponseWriter, code int, v any) {
	e := encPool.Get().(*pooledEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		s.encodeFailed(err)
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", "encode: "+err.Error())
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	if code != 0 {
		w.WriteHeader(code)
	}
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		// Headers are gone; log so a flaky client link is diagnosable.
		s.encodeFailed(err)
	}
	if e.buf.Cap() <= maxPooledBuf {
		encPool.Put(e)
	}
}

func (s *server) writeJSON(w http.ResponseWriter, v any) { s.writeJSONStatus(w, 0, v) }

// Header values shared by every answer that sends them. Each is full to
// its capacity, so an append copies it, and assigning one straight into a
// header map costs no allocation, where Header.Set makes a slice per call.
var (
	jsonContentType = []string{"application/json"}
	sourceCache     = []string{"cache"}
	sourceStore     = []string{"store"}
	sourcePeer      = []string{"peer"}
	sourceBuilt     = []string{"built"}
)

// sourceHeader is the X-Locshort-Source value of a locally served answer:
// one of the four shared slices, or a new one for any other source.
func sourceHeader(src string) []string {
	switch src {
	case "cache":
		return sourceCache
	case "store":
		return sourceStore
	case "peer":
		return sourcePeer
	case "built":
		return sourceBuilt
	}
	return []string{src}
}

// httpError is the uniform error envelope.
func (s *server) httpError(w http.ResponseWriter, code int, err error) {
	var pe *obs.PanicError
	if errors.As(err, &pe) {
		// The body names the panic; only the log carries its stack.
		s.logger.Error("panic", "err", err.Error(), "stack", string(pe.Stack))
	}
	s.writeJSONStatus(w, code, map[string]string{"error": err.Error()})
}

func (s *server) encodeFailed(err error) {
	s.encodeErrs.Add(1)
	if s.logger != nil {
		s.logger.Warn("http_encode_failed", "err", err.Error())
	}
}

// maxBody caps every request body, JSON or binary. A relayed explicit part
// list must fit in it.
const maxBody = 64 << 20

// decode reads a JSON request body capped at maxBody; decodeStatus maps a
// body over the cap to 413. A declared length over the cap fails before
// anything is read, with the *http.MaxBytesError readBody returns, and a
// chunked body trips the cap as it streams. The decoder stops at the end
// of the first value, so whatever follows it is left to the connection
// loop, which drains up to 256 KiB after the handler and closes the
// connection past that.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	defer r.Body.Close()
	if r.ContentLength > maxBody {
		return &http.MaxBytesError{Limit: maxBody}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// readBody reads a request body of at most maxBody bytes into buf's
// backing array, growing it as needed, and closes the body. A declared
// Content-Length is the client's word: wire.ReadDeclared makes room for it
// only as the bytes arrive, and its last exact read hits the end of the
// body, so the connection loop has nothing to drain after the handler. A
// chunked body is read to its end through the cap. A declared length over
// the cap fails before anything is read, with the *http.MaxBytesError
// decodeStatus maps to 413.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	defer r.Body.Close()
	n := r.ContentLength
	if n < 0 {
		bb := bytes.NewBuffer(buf[:0])
		_, err := bb.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
		return bb.Bytes(), err
	}
	if n > maxBody {
		return buf[:0], &http.MaxBytesError{Limit: maxBody}
	}
	return wire.ReadDeclared(r.Body, buf, int(n))
}

// decodeStatus maps a decode error to its status: 413 when the body cap
// tripped, 400 for everything else malformed.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// strictUnmarshal is decode's strictness (unknown fields rejected) for
// payloads that are already in memory: batch items, async job records and
// the JSON shortcut bodies scanShortcutJSON hands on.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// statusError tags an error with the HTTP status it maps to. The shared
// execution helpers (serveShortcut, runJob) use it to carry 400-class
// decisions out to whichever caller — the synchronous handler or the
// async dispatcher, which runs detached from any HTTP request.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{status: http.StatusBadRequest, err: err} }

// statusFor maps engine errors to HTTP statuses; a recovered panic is a
// 500.
func statusFor(err error) int {
	var se *statusError
	var pe *obs.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, service.ErrUnknownGraph), errors.Is(err, service.ErrUnknownShortcut):
		return http.StatusNotFound
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// graphRequest ingests a graph either by family spec ("grid:32x32", the
// internal/cli language) or as an explicit edge list [[u,v],[u,v,w],...].
type graphRequest struct {
	Spec  string      `json:"spec,omitempty"`
	Seed  int64       `json:"seed,omitempty"`
	Nodes int         `json:"nodes,omitempty"`
	Edges [][]float64 `json:"edges,omitempty"`
}

type graphResponse struct {
	Graph string `json:"graph"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (s *server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if wire.IsBinary(r.Header.Get("Content-Type")) {
		s.handleGraphsBinary(w, r)
		return
	}
	var req graphRequest
	if err := decode(w, r, &req); err != nil {
		s.httpError(w, decodeStatus(err), err)
		return
	}
	var g *graph.Graph
	switch {
	case req.Spec != "" && req.Edges != nil:
		s.httpError(w, http.StatusBadRequest, errors.New("give either spec or edges, not both"))
		return
	case req.Spec != "":
		var err error
		g, _, err = cli.ParseGraph(req.Spec, req.Seed)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
	case req.Edges != nil:
		var err error
		g, err = graphFromEdges(req.Nodes, req.Edges)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
	default:
		s.httpError(w, http.StatusBadRequest, errors.New("need spec or nodes+edges"))
		return
	}
	fp, err := s.eng.AddGraph(g)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Cluster mode: replicate the graph to every peer before acknowledging,
	// so a shortcut request for it can land on any node immediately.
	// Best-effort — a down peer is healed by its next anti-entropy round,
	// and the forward path re-pushes on a 404.
	if s.cl != nil {
		s.cl.BroadcastGraph(r.Context(), fp, store.EncodeGraphPayload(g))
	}
	// Respond with the submitted graph's size: on re-ingest of known
	// content it matches the representative by construction, and unlike a
	// Graph(fp) readback it cannot race a concurrent DELETE of the
	// fingerprint into a nil dereference.
	s.respondGraph(w, r, fp, g)
}

// handleGraphsBinary ingests a canonical graph payload directly: the body
// bytes are exactly what the store would persist and what the fingerprint
// is computed over, so the JSON decode → graph build → re-encode round
// trip collapses to one hash plus one structural validation. An
// If-None-Match header carrying a fingerprint the engine already knows
// short-circuits to 304 before the body is even read — the repeat-ingest
// dedupe probe costs a header, not an upload.
func (s *server) handleGraphsBinary(w http.ResponseWriter, r *http.Request) {
	if inm := strings.Trim(r.Header.Get("If-None-Match"), `"`); inm != "" {
		fp, err := service.ParseFingerprint(inm)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad If-None-Match: %w", err))
			return
		}
		if _, known := s.eng.Graph(fp); known {
			w.Header().Set(wire.HeaderGraph, fp.String())
			w.Header().Set("ETag", `"`+fp.String()+`"`)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	// A pooled buffer: nothing keeps the payload. The store copies it into
	// a frame, and BroadcastGraph returns only after its pushes.
	bp := framePool.Get().(*[]byte)
	payload, err := readBody(w, r, *bp)
	defer putFrame(bp, payload)
	if err != nil {
		s.httpError(w, decodeStatus(err), err)
		return
	}
	if len(payload) < 1 {
		s.httpError(w, http.StatusBadRequest, errors.New("empty graph payload"))
		return
	}
	fp := service.FingerprintBytes(payload[1:])
	// Decode validates version, structure, and canonical form; a payload
	// that survives it round-trips to the same bytes, so fp is authentic.
	g, err := store.DecodeGraphPayload(payload, fp)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.eng.AddGraphDecoded(fp, g, payload)
	if s.cl != nil {
		s.cl.BroadcastGraph(r.Context(), fp, payload)
	}
	s.respondGraph(w, r, fp, g)
}

// respondGraph acknowledges an ingest in the client's preferred shape. The
// fingerprint rides in an ETag either way, so any client can turn its next
// re-ingest into an If-None-Match probe.
func (s *server) respondGraph(w http.ResponseWriter, r *http.Request, fp service.Fingerprint, g *graph.Graph) {
	w.Header().Set("ETag", `"`+fp.String()+`"`)
	if wire.IsBinary(r.Header.Get("Accept")) {
		w.Header().Set(wire.HeaderGraph, fp.String())
		w.Header().Set(wire.HeaderNodes, strconv.Itoa(g.NumNodes()))
		w.Header().Set(wire.HeaderEdges, strconv.Itoa(g.NumEdges()))
		w.WriteHeader(http.StatusOK)
		return
	}
	s.writeJSON(w, graphResponse{Graph: fp.String(), Nodes: g.NumNodes(), Edges: g.NumEdges()})
}

// graphFromEdges validates and assembles an explicit edge list; unlike
// graph.AddEdge it rejects bad input with an error instead of panicking.
func graphFromEdges(nodes int, edges [][]float64) (*graph.Graph, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("nodes must be positive, got %d", nodes)
	}
	if err := graph.CheckSize(nodes, len(edges)); err != nil {
		return nil, err
	}
	g := graph.New(nodes)
	g.Grow(len(edges))
	for i, e := range edges {
		if len(e) != 2 && len(e) != 3 {
			return nil, fmt.Errorf("edge %d: want [u,v] or [u,v,w], got %d values", i, len(e))
		}
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return nil, fmt.Errorf("edge %d: endpoints must be integers", i)
		}
		if u < 0 || u >= nodes || v < 0 || v >= nodes {
			return nil, fmt.Errorf("edge %d: endpoints {%d,%d} out of range [0,%d)", i, u, v, nodes)
		}
		if u == v {
			return nil, fmt.Errorf("edge %d: self-loop at node %d", i, u)
		}
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		g.AddWeightedEdge(u, v, w)
	}
	return g, nil
}

// graphInfo is one row of the GET /v1/graphs listing.
type graphInfo struct {
	Graph string `json:"graph"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (s *server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	infos := s.eng.Graphs()
	out := make([]graphInfo, len(infos))
	for i, gi := range infos {
		out[i] = graphInfo{Graph: gi.Fingerprint.String(), Nodes: gi.Nodes, Edges: gi.Edges}
	}
	s.writeJSON(w, map[string]any{"graphs": out})
}

// handleGraphDelete evicts a graph everywhere: the engine registration,
// every resident cached shortcut built on it, the key memo entries parsed
// against it, and — when the daemon runs with -data — the durable records
// (reclaimed by the next locshortctl gc).
func (s *server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	fp, err := service.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	evicted, err := s.eng.RemoveGraph(fp)
	if err != nil {
		s.httpError(w, statusFor(err), err)
		return
	}
	// Evict the key memos of the deleted fingerprint: left behind they
	// would be silently reused (keys parsed against the removed graph
	// instance) if the same content is re-ingested, and they would hold
	// memo budget under ingest/delete churn.
	s.keysMu.Lock()
	for k := range s.keys {
		if k.graph == fp {
			delete(s.keys, k)
		}
	}
	s.keysMu.Unlock()
	s.writeJSON(w, map[string]any{"graph": fp.String(), "evicted_shortcuts": evicted})
}

// shortcutRequest asks for a build-or-get of a shortcut on a registered
// graph. The partition is given as an internal/cli spec plus seed or as an
// explicit part list; options use the canonical internal/cli textual form.
// Async submissions return 202 with a job ID instead of blocking.
type shortcutRequest struct {
	Graph     string  `json:"graph"`
	Partition string  `json:"partition,omitempty"`
	Parts     [][]int `json:"parts,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Options   string  `json:"options,omitempty"`
	Async     bool    `json:"async,omitempty"`
	// Forwarded is set from the X-Locshort-Forwarded header, never the
	// body: a relayed request is served locally, not routed again.
	Forwarded bool `json:"-"`
	// A binary frame, and a JSON body scanShortcutJSON reads, carries its
	// graph fingerprint parsed: hasFP is set, fp holds it and Graph stays
	// empty. Neither is ever async, so no such request is marshaled back
	// to JSON.
	fp    service.Fingerprint
	hasFP bool
}

// resolved is a shortcut request checked against this node's engine.
type resolved struct {
	req   shortcutRequest
	g     *graph.Graph
	build service.BuildRequest
}

// resolve parses the fingerprint and options and resolves the partition
// to the shortcut key, for the JSON body, the binary body, an async
// submission and a re-decoded async job alike. An explicit part list is
// validated into a partition; a spec goes through the key memo, so a
// repeat request carries only its key and the engine makes a partition
// only if it must construct. Request-shape problems come back as
// statusError(400), an unknown graph as service.ErrUnknownGraph (404).
func (s *server) resolve(req shortcutRequest) (resolved, error) {
	fp := req.fp
	if !req.hasFP {
		var err error
		if fp, err = service.ParseFingerprint(req.Graph); err != nil {
			return resolved{}, badRequest(err)
		}
	}
	g, ok := s.eng.Graph(fp)
	if !ok {
		return resolved{}, service.ErrUnknownGraph
	}
	opts, err := cli.ParseBuildOptions(req.Options)
	if err != nil {
		return resolved{}, badRequest(err)
	}
	b := service.BuildRequest{Graph: fp, Options: opts, Spec: req.Partition, Seed: req.Seed}
	switch {
	case req.Partition != "" && req.Parts != nil:
		return resolved{}, badRequest(errors.New("give either partition or parts, not both"))
	case req.Parts != nil:
		if b.Parts, err = partition.New(g, req.Parts); err != nil {
			return resolved{}, badRequest(err)
		}
		b.Key = service.ShortcutKey(fp, b.Parts, opts)
	case req.Partition == "":
		return resolved{}, badRequest(errors.New("need partition spec or parts"))
	default:
		if b.Key, b.Parts, err = s.specKey(g, b, req.Options); err != nil {
			return resolved{}, badRequest(err)
		}
	}
	return resolved{req: req, g: g, build: b}, nil
}

// specKey returns the shortcut key of a spec request, from the memo, or
// by parsing the spec — then the partition comes back too, for the
// engine to build with.
func (s *server) specKey(g *graph.Graph, b service.BuildRequest, options string) (service.Fingerprint, *partition.Partition, error) {
	mk := keyMemoKey{graph: b.Graph, spec: b.Spec, seed: b.Seed, options: options}
	s.keysMu.RLock()
	key, ok := s.keys[mk]
	s.keysMu.RUnlock()
	if ok {
		return key, nil, nil
	}
	parts, err := cli.ParsePartition(g, b.Spec, b.Seed)
	if err != nil {
		return 0, nil, err
	}
	key = service.ShortcutKey(b.Graph, parts, b.Options)
	if len(b.Spec)+len(options) > keyMemoSpec {
		return key, parts, nil
	}
	s.keysMu.Lock()
	if len(s.keys) < keyMemoLimit {
		s.keys[mk] = key
	}
	s.keysMu.Unlock()
	// Re-check the registration: a DELETE that ran between our Graph(fp)
	// read and this insert has already swept the memo, so an entry parsed
	// against the removed representative would be left behind (and
	// silently reused on re-ingest). Seeing the graph gone here means the
	// sweep ran; evicting our own insert closes the window.
	if _, still := s.eng.Graph(b.Graph); !still {
		s.keysMu.Lock()
		delete(s.keys, mk)
		s.keysMu.Unlock()
	}
	return key, parts, nil
}

// route names the ring owner to relay a resolved request to, with its
// key, or owner "" when this node executes it: single-node mode, a request
// relayed once already (X-Locshort-Forwarded), or a key this node owns.
func (s *server) route(rs resolved) (owner string, key service.Fingerprint) {
	if s.cl == nil || rs.req.Forwarded {
		return "", 0
	}
	owner, self := s.cl.Owner(rs.build.Key)
	if self {
		return "", 0
	}
	return owner, rs.build.Key
}

// served is a build-or-get this node executed, for either writer: the
// entry, whether it was a cache hit, the latency class ("cache", "store",
// "peer", or "built"), the executing node (cluster mode only), and the
// options a non-durable record is encoded with.
type served struct {
	entry    *service.Cached
	hit      bool
	source   string
	servedBy string
	opts     shortcut.Options
}

// execute is the only place /v1/shortcuts reaches eng.Build.
func (s *server) execute(ctx context.Context, rs resolved) (served, error) {
	c, hit, err := s.eng.Build(ctx, rs.build)
	if err != nil {
		return served{}, err
	}
	sv := served{entry: c, hit: hit, source: "cache", opts: rs.build.Options}
	if !hit {
		sv.source = c.Source.String()
	}
	if s.cl != nil {
		sv.servedBy = s.cl.Self()
	}
	return sv, nil
}

// relayed is the key owner's answer to a relayed request, verbatim but
// for the "forward:" prefix on its source header, with the graph and key
// it was asked for. writeRelayed hands slices of its header array to the
// client's header map, so the headers cost no allocation of their own.
type relayed struct {
	owner  string
	status int
	header cluster.Header
	body   []byte
	graph  service.Fingerprint
	key    service.Fingerprint
}

// serveShortcut is the one shortcut request path: resolve → route →
// execute. A request another node owns comes back as that owner's answer
// (rel != nil), unless the owner cannot be reached: then this node serves
// it (peer fetch, then rebuild). accept is what the relay asks the owner
// for, and what this node answers in: a miss for a JSON answer asks its
// fill to measure, so the answer is one worker job.
func (s *server) serveShortcut(ctx context.Context, req shortcutRequest, accept string) (served, *relayed, error) {
	rs, err := s.resolve(req)
	if err != nil {
		return served{}, nil, err
	}
	if owner, key := s.route(rs); owner != "" {
		if rel, err := s.relay(ctx, owner, key, rs, accept); rel != nil || err != nil {
			return served{}, rel, err
		}
	}
	rs.build.Measure = !wire.IsBinary(accept)
	sv, err := s.execute(ctx, rs)
	return sv, nil, err
}

// relay sends a request to the key's owner as a binary frame with the
// client's accept and returns the owner's answer, whatever its status. It
// returns nil, nil — serve locally — when the owner is down or
// unreachable, and the error when ctx ended first: a caller that has gone
// is not served here in the owner's place. An owner answering 404 missed
// the graph's ingest broadcast: relay pushes the graph and retries once.
func (s *server) relay(ctx context.Context, owner string, key service.Fingerprint, rs resolved, accept string) (*relayed, error) {
	if !s.cl.Available(owner) {
		return nil, nil
	}
	bp := framePool.Get().(*[]byte)
	frame := wire.AppendShortcutRequest((*bp)[:0], wire.ShortcutRequest{
		Graph: rs.build.Graph, Partition: rs.req.Partition, Seed: rs.req.Seed,
		Options: rs.req.Options, Parts: rs.req.Parts,
	})
	// Forward copies the frame into its connection's buffer.
	defer putFrame(bp, frame)
	for attempt := 0; ; attempt++ {
		status, hdr, body, err := s.cl.Forward(ctx, owner, "/v1/shortcuts", frame, accept)
		if err == nil && status == http.StatusNotFound && attempt == 0 {
			if err = s.cl.PushGraph(ctx, owner, rs.build.Graph, store.EncodeGraphPayload(rs.g)); err == nil {
				continue
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			if s.logger != nil {
				s.logger.Warn("forward_failed", "owner", owner, "err", err.Error())
			}
			return nil, nil
		}
		if src := hdr.Get(wire.HeaderSource); src != "" {
			hdr.Set(wire.HeaderSource, forwardSource(src))
		}
		return &relayed{owner: owner, status: status, header: hdr, body: body,
			graph: rs.build.Graph, key: key}, nil
	}
}

// forwardSource is the source a relayed answer reports: the owner's, with
// the "forward:" prefix. The four sources an owner names are constants, so
// only another value costs a concatenation.
func forwardSource(src string) string {
	switch src {
	case "cache":
		return "forward:cache"
	case "store":
		return "forward:store"
	case "peer":
		return "forward:peer"
	case "built":
		return "forward:built"
	}
	return "forward:" + src
}

// writeRelayed copies the owner's answer through to the client: its
// status, its body, and the headers the transport keeps
// (cluster.AnswerHeaders), with Content-Length equal to the body's
// length, so a relayed answer is no more chunked than the owner's. Every
// value slices rel's header array, assigned to the header map directly
// as in setBinaryAnswerHeaders; the names are canonical already.
func (s *server) writeRelayed(w http.ResponseWriter, rel *relayed) {
	vals := &rel.header
	if vals.Get("Content-Length") == "" {
		vals.Set("Content-Length", strconv.Itoa(len(rel.body)))
	}
	h := w.Header()
	for i, name := range cluster.AnswerHeaders {
		if vals[i] != "" {
			h[name] = vals[i : i+1 : i+1]
		}
	}
	w.WriteHeader(rel.status)
	if _, err := w.Write(rel.body); err != nil {
		s.encodeFailed(err)
	}
}

// jobResult is the async form of the owner's answer: a 200 body is the job
// result, anything else the error its envelope names. The owner answers a
// panic 500 with "panic: <value>" (httpError); that comes back as an
// *obs.PanicError, so the job ends failed without a retry here too
// instead of making the owner panic again.
func (rel *relayed) jobResult() (json.RawMessage, error) {
	if rel.status == http.StatusOK {
		return rel.body, nil
	}
	var envelope struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(rel.body, &envelope)
	if envelope.Error == "" {
		envelope.Error = fmt.Sprintf("owner %s answered %d", rel.owner, rel.status)
	}
	if v, ok := strings.CutPrefix(envelope.Error, "panic: "); ok && rel.status == http.StatusInternalServerError {
		return nil, &obs.PanicError{Value: v}
	}
	return nil, &statusError{status: rel.status, err: errors.New(envelope.Error)}
}

func (s *server) handleShortcuts(w http.ResponseWriter, r *http.Request) {
	req, err := readShortcutRequest(w, r, s.strs)
	if err != nil {
		s.httpError(w, statusFor(err), err)
		return
	}
	if req.Async {
		// Resolve before accepting: a request that cannot resolve answers
		// 400 or 404 now instead of becoming a job record that can only
		// fail — or, durably recorded, fail again on every warm start.
		if _, err := s.resolve(req); err != nil {
			s.httpError(w, statusFor(err), err)
			return
		}
		s.submitAsync(w, jobKindShortcut, req)
		return
	}
	req.Forwarded = r.Header.Get(cluster.ForwardedHeader) != ""
	accept := r.Header.Get("Accept")
	sv, rel, err := s.serveShortcut(r.Context(), req, accept)
	switch {
	case err != nil:
		s.httpError(w, statusFor(err), err)
		return
	case rel != nil:
		if src := rel.header.Get(wire.HeaderSource); src != "" {
			annotate(w, rel.graph, rel.key, src)
		}
		s.writeRelayed(w, rel)
		return
	}
	annotate(w, sv.entry.GraphFP, sv.entry.Key, sv.source)
	if wire.IsBinary(accept) {
		s.writeShortcutBinary(w, sv)
		return
	}
	q, err := s.quality(r.Context(), sv)
	if err != nil {
		s.httpError(w, statusFor(err), err)
		return
	}
	s.writeShortcutJSON(w, sv, q)
}

// framePool recycles the byte buffers of shortcut requests: their bodies,
// JSON or binary, decoded into values that alias none of their bytes
// (interned or fresh strings) and dropped; binary graph bodies, decoded
// into a graph and copied into a store frame; the frames relay
// sends to an owner, copied into the connection's buffer; and rendered
// JSON answers, copied by the writer. Either way the buffer can take the
// next one. Buffers over maxPooledBuf are not kept.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// putFrame returns frame, taken from framePool as *bp, to the pool.
func putFrame(bp *[]byte, frame []byte) {
	if cap(frame) <= maxPooledBuf {
		*bp = frame
		framePool.Put(bp)
	}
}

// readShortcutRequest reads a shortcut request body, binary or JSON, into
// a pooled buffer and decodes it, its strings taken through strs.
func readShortcutRequest(w http.ResponseWriter, r *http.Request, strs *wire.Interner) (shortcutRequest, error) {
	bp := framePool.Get().(*[]byte)
	body, err := readBody(w, r, *bp)
	defer putFrame(bp, body)
	if err != nil {
		return shortcutRequest{}, &statusError{status: decodeStatus(err), err: err}
	}
	if !wire.IsBinary(r.Header.Get("Content-Type")) {
		return decodeShortcutJSON(body, strs)
	}
	frame, err := wire.DecodeShortcutRequestInterned(body, strs)
	if err != nil {
		return shortcutRequest{}, badRequest(err)
	}
	return shortcutRequest{fp: frame.Graph, hasFP: true, Partition: frame.Partition,
		Parts: frame.Parts, Seed: frame.Seed, Options: frame.Options}, nil
}

// decodeShortcutJSON decodes a JSON shortcut request body: through
// scanShortcutJSON when the body has the shape every client sends, else
// through strictUnmarshal, so encoding/json judges every other body and
// writes every error. The fallback's request is declared in its branch: a
// pointer handed to encoding/json moves its target to the heap, and a
// scanned body should not pay that.
func decodeShortcutJSON(body []byte, strs *wire.Interner) (shortcutRequest, error) {
	if req, ok := scanShortcutJSON(body, strs); ok {
		return req, nil
	}
	var req shortcutRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return shortcutRequest{}, badRequest(err)
	}
	return req, nil
}

// scanShortcutJSON decodes the JSON shortcut request every client in the
// repository sends, without encoding/json: one object whose keys are
// graph, partition, seed and options, spelled exactly, each at most once
// and graph among them; strings of printable ASCII without escapes; a
// plain decimal seed of at most 18 digits; JSON whitespace between
// tokens and nothing after the object. The graph is parsed straight to its
// fingerprint, so only a graph ParseFingerprint would take is scanned.
// Anything else reports false, and the body goes to strictUnmarshal:
// encoding/json folds key case, unescapes, takes the last of repeated
// keys, reads null, fails what it must and ignores what follows the
// object, and the scanner need not. FuzzDecodeShortcutJSON holds every
// scanned body to what strictUnmarshal decodes. The partition and options
// strings come through strs (nil: fresh copies), never as views of b.
//
//locshort:hotpath
func scanShortcutJSON(b []byte, strs *wire.Interner) (req shortcutRequest, ok bool) {
	const (
		seenGraph = 1 << iota
		seenPartition
		seenSeed
		seenOptions
	)
	i := skipJSONSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	seen := 0
	for {
		key, j, valid := scanJSONString(b, skipJSONSpace(b, i+1))
		if !valid {
			return req, false
		}
		i = skipJSONSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipJSONSpace(b, i+1)
		var v []byte
		bit := 0
		switch string(key) {
		case "graph":
			bit = seenGraph
			if v, i, valid = scanJSONString(b, i); valid {
				req.fp, valid = scanFingerprint(v)
				req.hasFP = true
			}
		case "partition":
			bit = seenPartition
			v, i, valid = scanJSONString(b, i)
			req.Partition = strs.String(v)
		case "options":
			bit = seenOptions
			v, i, valid = scanJSONString(b, i)
			req.Options = strs.String(v)
		case "seed":
			bit = seenSeed
			req.Seed, i, valid = scanJSONSeed(b, i)
		}
		if !valid || bit == 0 || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		i = skipJSONSpace(b, i)
		if i == len(b) {
			return req, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return req, false
		}
	}
	return req, seen&seenGraph != 0 && skipJSONSpace(b, i+1) == len(b)
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanJSONString scans the string starting at b[i]: its bytes between the
// quotes and the index after it, or false unless every byte is printable
// ASCII other than a backslash.
func scanJSONString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// scanJSONSeed scans the number starting at b[i]: an optional minus and at
// most 18 decimal digits without a leading zero, so it fits an int64. A
// fraction or an exponent ends it at a byte the caller refuses.
func scanJSONSeed(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && wire.IsDigit(b[i]); i++ {
		n = 10*n + int64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return n, i, true
}

// scanFingerprint parses the 16 hex digits of a fingerprint, as
// service.ParseFingerprint does, without a string.
func scanFingerprint(v []byte) (service.Fingerprint, bool) {
	if len(v) != 16 {
		return 0, false
	}
	var f uint64
	for _, c := range v {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		f = f<<4 | uint64(c)
	}
	return service.Fingerprint(f), true
}

// quality is sv's measured quality for its JSON answer: from the entry's
// memo once measured (a lock-free read: warm hits, and the miss whose fill
// measured, skip the pool round trip), else from the engine, so a
// first-touch measurement runs on the bounded worker pool. Measured on the
// held entry: re-resolving the key would race eviction under capacity
// pressure.
func (s *server) quality(ctx context.Context, sv served) (shortcut.Quality, error) {
	if q, ok := sv.entry.QualityIfReady(); ok {
		return q, nil
	}
	return s.eng.MeasureCached(ctx, sv.entry)
}

// writeShortcutJSON renders sv as the JSON answer, appended into a pooled
// buffer and written once.
func (s *server) writeShortcutJSON(w http.ResponseWriter, sv served, q shortcut.Quality) {
	bp := framePool.Get().(*[]byte)
	answer := append(appendShortcutJSON((*bp)[:0], sv, q), '\n')
	// The names are canonical already: Set would only canonicalize them
	// again.
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h[wire.HeaderSource] = sourceHeader(sv.source)
	if _, err := w.Write(answer); err != nil {
		s.encodeFailed(err)
	}
	putFrame(bp, answer)
}

// appendShortcutJSON appends sv's JSON answer with quality q to b, without
// a trailing newline: the object of shortcut and graph (the fingerprints),
// cached, source (the latency class: "cache", a resident entry; "store",
// reloaded from the durable store; "peer", fetched from a cluster peer's
// store; "built", a cold construction; cached is true exactly when it is
// "cache"), served_by (the node that executed the request, in cluster mode
// only: on a forwarded request the owner), build_ms, delta, and the
// quality's congestion, dilation, max_blocks and covered_parts. The bytes
// are encoding/json's for the same values (TestShortcutJSONMatchesEncoder),
// rendered without reflection, boxing, or a string per fingerprint.
//
//locshort:hotpath
func appendShortcutJSON(b []byte, sv served, q shortcut.Quality) []byte {
	c := sv.entry
	b = append(b, `{"shortcut":"`...)
	b = c.Key.Append(b)
	b = append(b, `","graph":"`...)
	b = c.GraphFP.Append(b)
	b = append(b, `","cached":`...)
	b = strconv.AppendBool(b, sv.hit)
	b = append(b, `,"source":`...)
	b = appendJSONString(b, sv.source)
	if sv.servedBy != "" {
		b = append(b, `,"served_by":`...)
		b = appendJSONString(b, sv.servedBy)
	}
	// In milliseconds a build time is 0 or between 0.001 and 1e13 in
	// magnitude, where encoding/json writes a float64 in strconv's
	// shortest 'f' form.
	b = append(b, `,"build_ms":`...)
	b = strconv.AppendFloat(b, float64(c.BuildTime.Microseconds())/1000, 'f', -1, 64)
	b = append(b, `,"delta":`...)
	b = strconv.AppendInt(b, int64(c.Result.Delta), 10)
	b = append(b, `,"congestion":`...)
	b = strconv.AppendInt(b, int64(q.Congestion), 10)
	b = append(b, `,"dilation":`...)
	b = strconv.AppendInt(b, int64(q.Dilation), 10)
	b = append(b, `,"max_blocks":`...)
	b = strconv.AppendInt(b, int64(q.MaxBlocks), 10)
	b = append(b, `,"covered_parts":`...)
	b = strconv.AppendInt(b, int64(q.CoveredParts), 10)
	return append(b, '}')
}

// appendJSONString appends s quoted as encoding/json quotes it. A string
// of printable ASCII that needs no escape is copied between quotes; any
// other, which a source or a node name hardly is, goes through
// json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) //locshort:alloc-ok a string that needs escaping is rare; marshaling one cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeShortcutBinary renders sv as the binary answer: the canonical
// shortcut record payload as the body, the metadata in headers, and no
// quality numbers, so it never measures. The body is the stored payload —
// zero-copy off a mapped segment — or a fresh encode when the record is
// not durable: a storeless daemon, or a detached persist not yet landed.
func (s *server) writeShortcutBinary(w http.ResponseWriter, sv served) {
	c := sv.entry
	var payload []byte
	if s.st != nil {
		if p, ok, err := s.st.ShortcutPayload(c.Key); err == nil && ok {
			payload = p
		}
	}
	if payload == nil {
		var err error
		if payload, err = store.EncodeShortcutRecordPayload(c.GraphFP, c.Parts, sv.opts, c.Result, c.BuildTime); err != nil {
			s.httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	setBinaryAnswerHeaders(w.Header(), c.Key, c.GraphFP, sv.source, sv.servedBy, c.BuildTime, len(payload))
	if _, err := w.Write(payload); err != nil {
		s.encodeFailed(err)
	}
}

// setBinaryAnswerHeaders sets the binary answer's headers: content type,
// key, graph, source, build time, payload length and, in cluster mode, the
// executing node. Key, graph, build time and length are rendered into one
// string, and every value slices one array, assigned to the header map
// directly: Header.Set would canonicalize each name, which these already
// are (textproto.CanonicalMIMEHeaderKey), and allocate a []string per
// value.
//
//locshort:hotpath
func setBinaryAnswerHeaders(h http.Header, key, graph service.Fingerprint, source, servedBy string,
	buildTime time.Duration, length int) {

	var buf [16 + 16 + 20 + 20]byte
	b := key.Append(buf[:0])
	b = graph.Append(b)
	b = strconv.AppendInt(b, buildTime.Nanoseconds(), 10)
	ns := len(b)
	b = strconv.AppendInt(b, int64(length), 10)
	rendered := string(b)
	vals := &[7]string{wire.ContentType, rendered[:16], rendered[16:32], source,
		rendered[32:ns], rendered[ns:], servedBy}
	h["Content-Type"] = vals[0:1:1]
	h[wire.HeaderKey] = vals[1:2:2]
	h[wire.HeaderGraph] = vals[2:3:3]
	h[wire.HeaderSource] = vals[3:4:4]
	h[wire.HeaderBuildNs] = vals[4:5:5]
	h["Content-Length"] = vals[5:6:6]
	if servedBy != "" {
		h[wire.HeaderServedBy] = vals[6:7:7]
	}
}

// jobRequest runs a query job. Kind selects the algorithm; graph-level
// jobs (mst, mincut) address a graph fingerprint, shortcut-level jobs
// (aggregate, measure) address a shortcut key from /v1/shortcuts. Async
// submissions return 202 with a job ID instead of blocking.
type jobRequest struct {
	Kind     string `json:"kind"`
	Graph    string `json:"graph,omitempty"`
	Shortcut string `json:"shortcut,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Op is the aggregation operator: "sum" (default), "min", or "max".
	Op string `json:"op,omitempty"`
	// Values optionally carries one int per node for aggregate jobs
	// (default: constant 1, so sum counts part sizes).
	Values []int64 `json:"values,omitempty"`
	// Provider selects the MST/MinCut shortcut provider: "central"
	// (default), "distributed", "adaptive", or "trivial".
	Provider string `json:"provider,omitempty"`
	Async    bool   `json:"async,omitempty"`
}

// jobKindShortcut is the async-manager kind for build-or-get shortcut
// requests; the query kinds ("mst", "mincut", "aggregate", "measure")
// pass through jobRequest.Kind unchanged.
const jobKindShortcut = "shortcut"

// validJobKind reports whether kind names a query-job algorithm.
func validJobKind(kind string) bool {
	switch kind {
	case "mst", "mincut", "aggregate", "measure":
		return true
	}
	return false
}

func parseOp(s string) (dist.Op, error) {
	switch s {
	case "", "sum":
		return dist.OpSum, nil
	case "min":
		return dist.OpMin, nil
	case "max":
		return dist.OpMax, nil
	}
	return 0, fmt.Errorf("unknown op %q (want sum, min, or max)", s)
}

func parseProvider(s string) (dist.ProviderKind, error) {
	switch s {
	case "", "central":
		return dist.ProviderCentral, nil
	case "distributed":
		return dist.ProviderDistributed, nil
	case "adaptive":
		return dist.ProviderCentralAdaptive, nil
	case "trivial":
		return dist.ProviderTrivial, nil
	}
	return 0, fmt.Errorf("unknown provider %q (want central, distributed, adaptive, or trivial)", s)
}

type roundsJSON struct {
	Measured int `json:"measured"`
	Sync     int `json:"sync"`
	Charged  int `json:"charged"`
	Total    int `json:"total"`
}

func roundsOf(r dist.Rounds) roundsJSON {
	return roundsJSON{Measured: r.Measured, Sync: r.Sync, Charged: r.Charged, Total: r.Total()}
}

// runJob executes one query job: the path shared by the synchronous
// POST /v1/jobs handler and the async dispatcher.
func (s *server) runJob(ctx context.Context, req jobRequest) (map[string]any, error) {
	switch req.Kind {
	case "mst":
		fp, err := service.ParseFingerprint(req.Graph)
		if err != nil {
			return nil, badRequest(err)
		}
		provider, err := parseProvider(req.Provider)
		if err != nil {
			return nil, badRequest(err)
		}
		res, err := s.eng.MST(ctx, service.MSTRequest{
			Graph:   fp,
			Options: dist.MSTOptions{Provider: provider, Seed: req.Seed},
		})
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"kind": "mst", "weight": res.Weight, "edges": len(res.EdgeIDs),
			"phases": res.Phases, "rounds": roundsOf(res.Rounds),
		}, nil
	case "mincut":
		fp, err := service.ParseFingerprint(req.Graph)
		if err != nil {
			return nil, badRequest(err)
		}
		res, err := s.eng.MinCut(ctx, service.MinCutRequest{
			Graph:   fp,
			Options: dist.MinCutOptions{Seed: req.Seed},
		})
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"kind": "mincut", "value": res.Value, "trees": res.Trees,
			"rounds": roundsOf(res.Rounds),
		}, nil
	case "aggregate":
		key, err := service.ParseFingerprint(req.Shortcut)
		if err != nil {
			return nil, badRequest(err)
		}
		op, err := parseOp(req.Op)
		if err != nil {
			return nil, badRequest(err)
		}
		areq := service.AggregateRequest{Shortcut: key, Op: op, Seed: req.Seed}
		if req.Values != nil {
			areq.Values = make([]dist.Payload, len(req.Values))
			for i, v := range req.Values {
				areq.Values[i] = dist.Payload{v, v, v}
			}
		}
		res, err := s.eng.Aggregate(ctx, areq)
		if err != nil {
			return nil, err
		}
		parts := make([]int64, len(res.PartResult))
		for i, p := range res.PartResult {
			parts[i] = p[0]
		}
		return map[string]any{
			"kind": "aggregate", "parts": parts, "rounds": roundsOf(res.Rounds),
		}, nil
	case "measure":
		key, err := service.ParseFingerprint(req.Shortcut)
		if err != nil {
			return nil, badRequest(err)
		}
		q, err := s.eng.Measure(ctx, key)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"kind": "measure", "congestion": q.Congestion, "dilation": q.Dilation,
			"max_blocks": q.MaxBlocks, "covered_parts": q.CoveredParts,
			"dilation_exact": q.DilationExact,
		}, nil
	default:
		return nil, badRequest(
			fmt.Errorf("unknown job kind %q (want mst, mincut, aggregate, or measure)", req.Kind))
	}
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decode(w, r, &req); err != nil {
		s.httpError(w, decodeStatus(err), err)
		return
	}
	if req.Async {
		// Reject unknown kinds before accepting: a 202 for a job that can
		// only ever fail helps nobody.
		if !validJobKind(req.Kind) {
			s.httpError(w, http.StatusBadRequest,
				fmt.Errorf("unknown job kind %q (want mst, mincut, aggregate, or measure)", req.Kind))
			return
		}
		s.submitAsync(w, req.Kind, req)
		return
	}
	out, err := s.runJob(r.Context(), req)
	if err != nil {
		s.httpError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, out)
}

// execAsync is the jobs.Executor: it re-decodes the persisted request body
// and runs the identical execution path as the synchronous handlers. The
// ctx is the job's own (canceled by DELETE /v1/jobs/{id} and by
// shutdown), not an HTTP request context.
func (s *server) execAsync(ctx context.Context, kind string, request json.RawMessage) (json.RawMessage, error) {
	if kind == jobKindShortcut {
		var req shortcutRequest
		if err := strictUnmarshal(request, &req); err != nil {
			return nil, err
		}
		// A relayed job asks the owner for JSON: its answer is the result.
		sv, rel, err := s.serveShortcut(ctx, req, "")
		switch {
		case err != nil:
			return nil, err
		case rel != nil:
			return rel.jobResult()
		}
		q, err := s.quality(ctx, sv)
		if err != nil {
			return nil, err
		}
		return appendShortcutJSON(nil, sv, q), nil
	}
	var req jobRequest
	if err := strictUnmarshal(request, &req); err != nil {
		return nil, err
	}
	req.Kind = kind
	out, err := s.runJob(ctx, req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// asyncStatus maps manager submission errors to HTTP statuses.
func asyncStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// submitAsync marshals the decoded request back to JSON (its durable
// form), submits it, and acknowledges with 202 + the queued job record.
func (s *server) submitAsync(w http.ResponseWriter, kind string, req any) {
	payload, err := json.Marshal(req)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	rec, err := s.mgr.Submit(kind, payload)
	if err != nil {
		s.httpError(w, asyncStatus(err), err)
		return
	}
	s.writeJSONStatus(w, http.StatusAccepted, jobView(rec, false))
}

// jobViewJSON is the wire form of a job record. Result is included only
// where the full record was asked for (GET /v1/jobs/{id}); listings and
// submission acknowledgements omit it.
type jobViewJSON struct {
	ID              string          `json:"id"`
	Kind            string          `json:"kind"`
	State           string          `json:"state"`
	Attempts        int             `json:"attempts,omitempty"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	Created         string          `json:"created"`
	Started         string          `json:"started,omitempty"`
	Finished        string          `json:"finished,omitempty"`
	Error           string          `json:"error,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"`
}

func jobView(rec jobs.Record, withResult bool) jobViewJSON {
	ts := func(ns int64) string {
		if ns == 0 {
			return ""
		}
		return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	v := jobViewJSON{
		ID:              rec.ID.String(),
		Kind:            rec.Kind,
		State:           rec.State.String(),
		Attempts:        rec.Attempts,
		CancelRequested: rec.CancelRequested,
		Created:         ts(rec.CreatedNs),
		Started:         ts(rec.StartedNs),
		Finished:        ts(rec.FinishedNs),
		Error:           rec.Error,
	}
	if withResult {
		v.Result = rec.Result
	}
	return v
}

// batchRequest is a list of async submissions: each item is either a
// shortcut request (no "kind" field) or a query-job request. The whole
// batch is validated before anything is accepted, so a 400 means nothing
// was enqueued.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// maxBatchItems bounds one batch; larger workloads paginate.
const maxBatchItems = 4096

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decode(w, r, &req); err != nil {
		s.httpError(w, decodeStatus(err), err)
		return
	}
	if len(req.Requests) == 0 {
		s.httpError(w, http.StatusBadRequest, errors.New("empty batch: need requests"))
		return
	}
	if len(req.Requests) > maxBatchItems {
		s.httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d requests exceeds the %d-item limit", len(req.Requests), maxBatchItems))
		return
	}
	// Pass 1: validate shape, and resolve shortcut items as a single
	// async submission does, so a malformed or unresolvable item rejects
	// the whole batch before any job is accepted.
	kinds := make([]string, len(req.Requests))
	for i, raw := range req.Requests {
		var probe struct {
			Kind string `json:"kind"`
		}
		_ = json.Unmarshal(raw, &probe) // shape errors surface in the strict pass below
		if probe.Kind == "" {
			var sr shortcutRequest
			if err := strictUnmarshal(raw, &sr); err != nil {
				s.httpError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
				return
			}
			if _, err := s.resolve(sr); err != nil {
				s.httpError(w, statusFor(err), fmt.Errorf("request %d: %w", i, err))
				return
			}
			kinds[i] = jobKindShortcut
			continue
		}
		var jr jobRequest
		if err := strictUnmarshal(raw, &jr); err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
			return
		}
		if !validJobKind(jr.Kind) {
			s.httpError(w, http.StatusBadRequest,
				fmt.Errorf("request %d: unknown job kind %q", i, jr.Kind))
			return
		}
		kinds[i] = jr.Kind
	}
	// Pass 2: submit. A queue-full mid-batch reports what was accepted —
	// those jobs are already durable and will run.
	accepted := make([]jobViewJSON, 0, len(req.Requests))
	for i, raw := range req.Requests {
		rec, err := s.mgr.Submit(kinds[i], raw)
		if err != nil {
			s.writeJSONStatus(w, asyncStatus(err), map[string]any{
				"error": fmt.Sprintf("request %d: %v (%d accepted)", i, err, len(accepted)),
				"jobs":  accepted,
			})
			return
		}
		accepted = append(accepted, jobView(rec, false))
	}
	s.writeJSONStatus(w, http.StatusAccepted, map[string]any{"jobs": accepted})
}

// maxJobWait caps the GET /v1/jobs/{id} long-poll; clients with longer
// horizons re-poll.
const maxJobWait = 5 * time.Minute

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, err := jobs.ParseID(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	rec, ok := s.mgr.Get(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, jobs.ErrUnknownJob)
		return
	}
	if ws := r.URL.Query().Get("wait"); ws != "" && !rec.State.Terminal() {
		wait, err := time.ParseDuration(ws)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: %w", ws, err))
			return
		}
		if wait > maxJobWait {
			wait = maxJobWait
		}
		if wait > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			rec, _ = s.mgr.Wait(ctx, id)
			cancel()
		}
	}
	s.writeJSON(w, jobView(rec, true))
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var filter *jobs.State
	if fs := r.URL.Query().Get("state"); fs != "" {
		st, err := jobs.ParseState(fs)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
		filter = &st
	}
	recs := s.mgr.List()
	out := make([]jobViewJSON, 0, len(recs))
	for _, rec := range recs {
		if filter != nil && rec.State != *filter {
			continue
		}
		out = append(out, jobView(rec, false))
	}
	s.writeJSON(w, map[string]any{"jobs": out})
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobs.ParseID(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	rec, err := s.mgr.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		s.httpError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrFinished):
		s.httpError(w, http.StatusConflict,
			fmt.Errorf("job %s already %s", id, rec.State))
	case err != nil:
		s.httpError(w, http.StatusInternalServerError, err)
	default:
		s.writeJSON(w, jobView(rec, false))
	}
}

// snapshotStats is the single merge path for engine and async-manager
// counters: every consumer (the /v1/stats handler today; anything added
// later) must go through it. The read order is load-bearing: engine
// counters are sampled FIRST, manager counters SECOND. A job's build is
// recorded by the engine strictly after the manager recorded its
// submission, so sampling the engine at t1 and the manager at t2 > t1 can
// only see submissions the engine-side work hasn't landed for yet — never
// the reverse. One response can therefore never report more async-driven
// builds than job submissions, which the old two-reads-in-the-handler
// arrangement did not guarantee against reordering edits.
func (s *server) snapshotStats() service.Stats {
	st := s.eng.Stats()
	if s.mgr != nil {
		js := s.mgr.Stats()
		st.AsyncSubmitted = js.Submitted
		st.AsyncQueued = js.Queued
		st.AsyncRunning = js.Running
		st.AsyncDone = js.Done
		st.AsyncFailed = js.Failed
		st.AsyncCanceled = js.Canceled
		st.AsyncRetries = js.Retries
		st.AsyncPersistErrors = js.PersistErrors
		st.AsyncRecoverSkip = js.RecoverSkipped
		st.AsyncPanics = js.Panics
	}
	if s.cl != nil {
		cs := s.cl.Stats()
		st.Forwards = cs.Forwards
		st.ForwardErrors = cs.ForwardErrors
		st.SyncPulls = cs.SyncPulls
		st.SyncRounds = cs.SyncRounds
		st.SyncErrors = cs.SyncErrors
		st.PeersReachable = cs.PeersReachable
	}
	return st
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.snapshotStats()
	s.writeJSON(w, map[string]any{
		"stats":          st,
		"hit_rate":       st.HitRate(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
