package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// newTestServer stands up an engine, the HTTP API, and a started async
// job manager, torn down in reverse order with the test.
func newTestServer(t *testing.T, cfg service.Config, jcfg jobs.Config) (*testServer, *server) {
	t.Helper()
	eng := service.New(cfg)
	srv, h := newServer(eng, jcfg, serverOptions{})
	srv.mgr.Start()
	ts := serveLoop(t, h)
	t.Cleanup(func() {
		ts.Close()
		srv.mgr.Close()
		eng.Close()
	})
	return ts, srv
}

// keyMemoLen counts the server's key memo entries.
func (s *server) keyMemoLen() int {
	s.keysMu.RLock()
	defer s.keysMu.RUnlock()
	return len(s.keys)
}

// postJSON round-trips a JSON request against the test server, failing the
// test on transport errors and decoding into out when the status matches.
func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, e["error"])
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEndToEnd ingests a grid, builds a shortcut (cold then hot), and runs
// MST and aggregation through the HTTP API — the full daemon lifecycle
// minus the TCP listener.
func TestEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2}, jobs.Config{})

	// Ingest a 16x16 grid by family spec.
	var g struct {
		Graph string `json:"graph"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:16x16"}, http.StatusOK, &g)
	if g.Nodes != 256 || g.Edges != 480 {
		t.Fatalf("grid ingest = %d nodes / %d edges, want 256/480", g.Nodes, g.Edges)
	}

	// Re-ingesting the same content must return the same fingerprint.
	var g2 struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:16x16"}, http.StatusOK, &g2)
	if g2.Graph != g.Graph {
		t.Fatalf("re-ingest fingerprint %s != %s", g2.Graph, g.Graph)
	}

	// Build a shortcut: cold, then a cache hit for the same request.
	build := map[string]any{"graph": g.Graph, "partition": "blobs:16", "seed": 7}
	var s1, s2 struct {
		Shortcut     string  `json:"shortcut"`
		Cached       bool    `json:"cached"`
		BuildMillis  float64 `json:"build_ms"`
		Congestion   int     `json:"congestion"`
		Dilation     int     `json:"dilation"`
		CoveredParts int     `json:"covered_parts"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, &s1)
	if s1.Cached {
		t.Error("first build reported cached")
	}
	if s1.CoveredParts != 16 || s1.Congestion < 1 || s1.Dilation < 1 {
		t.Errorf("implausible quality: %+v", s1)
	}
	postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, &s2)
	if !s2.Cached || s2.Shortcut != s1.Shortcut {
		t.Errorf("second build: cached=%v key=%s, want hit on %s", s2.Cached, s2.Shortcut, s1.Shortcut)
	}

	// A different partition seed is a different shortcut.
	var s3 struct {
		Shortcut string `json:"shortcut"`
		Cached   bool   `json:"cached"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:16", "seed": 8},
		http.StatusOK, &s3)
	if s3.Cached || s3.Shortcut == s1.Shortcut {
		t.Error("distinct partition seed did not produce a distinct cold build")
	}

	// MST through the API matches Kruskal computed locally.
	var mst struct {
		Weight float64 `json:"weight"`
		Edges  int     `json:"edges"`
		Phases int     `json:"phases"`
	}
	postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "mst", "graph": g.Graph},
		http.StatusOK, &mst)
	local, _, err := cli.ParseGraph("grid:16x16", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, want := graph.Kruskal(local)
	if math.Abs(mst.Weight-want) > 1e-9 || mst.Edges != 255 {
		t.Errorf("MST = %+v, want weight %v with 255 edges", mst, want)
	}

	// Aggregation over the cached shortcut counts part sizes.
	var agg struct {
		Parts []int64 `json:"parts"`
	}
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "aggregate", "shortcut": s1.Shortcut, "op": "sum"},
		http.StatusOK, &agg)
	total := int64(0)
	for _, p := range agg.Parts {
		total += p
	}
	if len(agg.Parts) != 16 || total != 256 {
		t.Errorf("aggregate parts = %v (total %d), want 16 parts totaling 256", agg.Parts, total)
	}

	// Measure over the cached shortcut agrees with the build response.
	var meas struct {
		Congestion int `json:"congestion"`
		Dilation   int `json:"dilation"`
	}
	postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "measure", "shortcut": s1.Shortcut},
		http.StatusOK, &meas)
	if meas.Congestion != s1.Congestion || meas.Dilation != s1.Dilation {
		t.Errorf("measure %+v disagrees with build response %+v", meas, s1)
	}

	// Stats reflect the traffic.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Stats   service.Stats `json:"stats"`
		HitRate float64       `json:"hit_rate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Builds != 2 {
		t.Errorf("Builds = %d, want 2 (two distinct shortcuts)", stats.Stats.Builds)
	}
	if stats.Stats.CacheHits == 0 || stats.HitRate <= 0 {
		t.Errorf("no cache hits recorded: %+v", stats)
	}
	if stats.Stats.Graphs != 1 {
		t.Errorf("Graphs = %d, want 1", stats.Stats.Graphs)
	}
}

func TestEndToEndExplicitEdgesAndParts(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})

	// A weighted 4-cycle given as an explicit edge list.
	var g struct {
		Graph string `json:"graph"`
		Edges int    `json:"edges"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"nodes": 4,
		"edges": [][]float64{{0, 1}, {1, 2, 2.5}, {2, 3}, {3, 0}},
	}, http.StatusOK, &g)
	if g.Edges != 4 {
		t.Fatalf("edges = %d, want 4", g.Edges)
	}

	var sc struct {
		Shortcut     string `json:"shortcut"`
		CoveredParts int    `json:"covered_parts"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts", map[string]any{
		"graph": g.Graph,
		"parts": [][]int{{0, 1}, {2, 3}},
	}, http.StatusOK, &sc)
	if sc.CoveredParts != 2 {
		t.Errorf("covered parts = %d, want 2", sc.CoveredParts)
	}
}

func TestAPIErrors(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})

	// Unknown graph fingerprint: 404.
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": "00000000000000ff", "partition": "blobs:4"},
		http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "mst", "graph": "00000000000000ff"},
		http.StatusNotFound, nil)
	// Unknown shortcut key: 404.
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "measure", "shortcut": "00000000000000ff"},
		http.StatusNotFound, nil)
	// Malformed requests: 400.
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/graphs",
		map[string]any{"spec": "nosuch:1"}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/graphs",
		map[string]any{"nodes": 3, "edges": [][]float64{{0, 0}}}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "frobnicate"}, http.StatusBadRequest, nil)

	// Bad options string: 400.
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "path:4"}, http.StatusOK, &g)
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "singletons", "options": "zeta=1"},
		http.StatusBadRequest, nil)
}

// TestDegenerateGraphSpecs400 pins that graph specs whose sizes their
// family cannot build answer 400 naming the problem. A generator panic
// would instead drop the connection (net/http recovers per connection),
// so the client would see a reset; the daemon must also keep serving.
func TestDegenerateGraphSpecs400(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	for _, spec := range []string{
		"wheel:3", "wheel:2", "cycle:2", "cycle:1", "torus:2x2", "torus:1x1",
		"grid:-2x3", "ktree:3,4", "random:5,100",
	} {
		var e map[string]string
		postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": spec}, http.StatusBadRequest, &e)
		if !strings.Contains(e["error"], "degenerate graph spec") {
			t.Errorf("spec %q: error %q, want one naming a degenerate spec", spec, e["error"])
		}
	}
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "wheel:4"}, http.StatusOK, &g)
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "rim"}, http.StatusOK, nil)
}

// TestOversizedGraphsRefused sends graphs over graph.MaxNodes or
// graph.MaxEdges down every ingest path: specs whose sizes pass the limits
// or wrap int, a JSON edge list with a huge node count, and a 17-byte
// binary payload claiming 2^26 nodes. Each is refused before anything is
// sized from it (any of them used to exhaust memory or panic), and the
// daemon keeps serving.
func TestOversizedGraphsRefused(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	for _, body := range []map[string]any{
		{"spec": "grid:70000x70000"},
		{"spec": "complete:200000"},
		{"spec": "torus:4294967297x4294967297"},
		{"spec": "grid:3037000500x3037000500"},
		{"nodes": 2000000000, "edges": [][]int{}},
		{"nodes": 2000000000, "edges": [][]int{{0, 1}}},
	} {
		var e map[string]string
		postJSON(t, ts.URL+"/v1/graphs", body, http.StatusBadRequest, &e)
		if !strings.Contains(e["error"], graph.ErrTooLarge.Error()) {
			t.Errorf("%v: error %q, want one naming the size limit", body, e["error"])
		}
	}
	payload := make([]byte, 17) // version, n = 2^26, m = 0
	payload[0] = 1
	payload[5] = 4
	resp := doBinary(t, "POST", ts.URL+"/v1/graphs", payload, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("2^26-node binary payload: status %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:4x4"}, http.StatusOK, &g)
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:4"}, http.StatusOK, nil)
}

// TestWarmStartOverIngestLimits persists a graph record over
// graph.MaxNodes, as a release without ingest limits could have, and
// restarts on it: the store's own records are read under the store's
// looser bound, so warm start, serving and `locshortctl verify -data`
// still accept it. The same bytes posted over the network are refused.
func TestWarmStartOverIngestLimits(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 17) // version, n = graph.MaxNodes+1, m = 0
	payload[0] = 1
	binary.BigEndian.PutUint64(payload[1:], graph.MaxNodes+1)
	fp := service.FingerprintBytes(payload[1:])
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutGraphPayload(fp, payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if problems := st2.Verify(); len(problems) != 0 {
		t.Errorf("Verify = %v, want a clean store", problems)
	}
	runtime.GC() // drop Verify's decoded copy before warm start decodes another
	ts, srv := newTestServer(t, service.Config{Workers: 1, Store: st2}, jobs.Config{})
	if n, err := srv.eng.WarmStart(); err != nil || n != 1 {
		t.Fatalf("WarmStart = (%d, %v), want (1, nil)", n, err)
	}
	var list struct {
		Graphs []struct {
			Graph string `json:"graph"`
			Nodes int    `json:"nodes"`
		} `json:"graphs"`
	}
	getJSON(t, ts.URL+"/v1/graphs", &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Graph != fp.String() || list.Graphs[0].Nodes != graph.MaxNodes+1 {
		t.Errorf("graph list = %+v, want the stored %d-node graph", list, graph.MaxNodes+1)
	}
	resp := doBinary(t, "POST", ts.URL+"/v1/graphs", payload, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("binary ingest of the stored payload: status %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
}

// getJSON decodes a GET endpoint.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWarmStart is the restart-recovery e2e: a shortcut built before
// the daemon goes down is served after a restart on the same data directory
// without invoking Build at all — asserted through the engine Stats
// counters — and with identical measured quality.
func TestRestartWarmStart(t *testing.T) {
	// A torus, unlike a grid, is generated out of canonical edge order:
	// its spec ingest and its warm-started decode must still agree.
	for _, spec := range []string{"grid:12x12", "torus:12x12"} {
		t.Run(spec, func(t *testing.T) { testRestartWarmStart(t, spec) })
	}
}

func testRestartWarmStart(t *testing.T, spec string) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st})
	srv1, h1 := newServer(eng, jobs.Config{Store: st}, serverOptions{})
	srv1.mgr.Start()
	ts := serveLoop(t, h1)

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": spec}, http.StatusOK, &g)
	build := map[string]any{"graph": g.Graph, "partition": "blobs:12", "seed": 5}
	var s1 struct {
		Shortcut   string `json:"shortcut"`
		Source     string `json:"source"`
		Congestion int    `json:"congestion"`
		Dilation   int    `json:"dilation"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, &s1)
	if s1.Source != "built" {
		t.Fatalf("first build source = %q, want built", s1.Source)
	}
	// Clean shutdown: engine Close drains the detached store write.
	ts.Close()
	srv1.mgr.Close()
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh engine over the same directory.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := service.New(service.Config{Workers: 2, Store: st2})
	defer func() {
		eng2.Close()
		st2.Close()
	}()
	if n, err := eng2.WarmStart(); err != nil || n != 1 {
		t.Fatalf("WarmStart = (%d, %v), want (1, nil)", n, err)
	}
	srv2, h2 := newServer(eng2, jobs.Config{Store: st2}, serverOptions{})
	srv2.mgr.Start()
	defer srv2.mgr.Close()
	ts2 := serveLoop(t, h2)
	defer ts2.Close()

	// The warm-started catalog lists the graph without re-ingesting.
	var list struct {
		Graphs []struct {
			Graph string `json:"graph"`
			Nodes int    `json:"nodes"`
		} `json:"graphs"`
	}
	getJSON(t, ts2.URL+"/v1/graphs", &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Graph != g.Graph || list.Graphs[0].Nodes != 144 {
		t.Fatalf("post-restart graph list = %+v, want the persisted %s", list, spec)
	}

	var s2 struct {
		Shortcut   string `json:"shortcut"`
		Cached     bool   `json:"cached"`
		Source     string `json:"source"`
		Congestion int    `json:"congestion"`
		Dilation   int    `json:"dilation"`
	}
	postJSON(t, ts2.URL+"/v1/shortcuts", build, http.StatusOK, &s2)
	if s2.Source != "store" || s2.Cached {
		t.Errorf("post-restart source = %q (cached=%v), want a store hit", s2.Source, s2.Cached)
	}
	if s2.Shortcut != s1.Shortcut {
		t.Errorf("post-restart key %s != pre-restart %s", s2.Shortcut, s1.Shortcut)
	}
	if s2.Congestion != s1.Congestion || s2.Dilation != s1.Dilation {
		t.Errorf("post-restart quality (%d,%d) != pre-restart (%d,%d)",
			s2.Congestion, s2.Dilation, s1.Congestion, s1.Dilation)
	}
	stats := eng2.Stats()
	if stats.Builds != 0 {
		t.Errorf("Builds = %d after restart, want 0 (no rebuild)", stats.Builds)
	}
	if stats.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1", stats.StoreHits)
	}
	// Second request for the same key is now a resident cache hit.
	postJSON(t, ts2.URL+"/v1/shortcuts", build, http.StatusOK, &s2)
	if s2.Source != "cache" || !s2.Cached {
		t.Errorf("repeat request source = %q (cached=%v), want cache", s2.Source, s2.Cached)
	}
	// The store itself verifies clean.
	if problems := st2.Verify(); len(problems) != 0 {
		t.Errorf("store verify after restart: %v", problems)
	}
}

// TestGraphListAndDelete exercises GET /v1/graphs and DELETE
// /v1/graphs/{fp}: eviction empties the cache and the store, and the
// fingerprint 404s afterwards.
func TestGraphListAndDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st})
	defer func() {
		eng.Close()
		st.Close()
	}()
	srv, h := newServer(eng, jobs.Config{Store: st}, serverOptions{})
	srv.mgr.Start()
	defer srv.mgr.Close()
	ts := serveLoop(t, h)
	defer ts.Close()

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:8"}, http.StatusOK, nil)

	var del struct {
		Evicted int `json:"evicted_shortcuts"`
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+g.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	if del.Evicted != 1 {
		t.Errorf("evicted %d cached shortcuts, want 1", del.Evicted)
	}
	// Gone from the listing, from the engine, and from the store.
	var list struct {
		Graphs []any `json:"graphs"`
	}
	getJSON(t, ts.URL+"/v1/graphs", &list)
	if len(list.Graphs) != 0 {
		t.Errorf("graph list after delete = %+v, want empty", list.Graphs)
	}
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:8"}, http.StatusNotFound, nil)
	if ss := st.OpenStats(); ss.Graphs != 0 || ss.Shortcuts != 0 {
		t.Errorf("store still holds %d graphs / %d shortcuts after delete", ss.Graphs, ss.Shortcuts)
	}
	// Deleting again: 404.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+g.Graph, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", resp2.StatusCode)
	}
}

// doJSON issues a request with an arbitrary method, asserting the status
// and decoding the body when out is non-nil.
func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e["error"])
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// jobStatus is the wire form of one async job as the tests read it.
type jobStatus struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// waitJob long-polls GET /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var js jobStatus
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+id+"?wait=2s", nil, http.StatusOK, &js)
		switch js.State {
		case "done", "failed", "canceled":
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, js.State)
		}
	}
}

// TestAsyncShortcutEndToEnd submits a build with "async": true, fetches
// the result by job ID, and checks it matches what the synchronous path
// serves (same content-addressed key, now a cache hit).
func TestAsyncShortcutEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2}, jobs.Config{Workers: 2})

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:16x16"}, http.StatusOK, &g)

	var sub jobStatus
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:16", "seed": 3, "async": true},
		http.StatusAccepted, &sub)
	if sub.ID == "" || sub.State != "queued" || sub.Kind != "shortcut" {
		t.Fatalf("async submit ack = %+v, want a queued shortcut job", sub)
	}

	js := waitJob(t, ts.URL, sub.ID)
	if js.State != "done" {
		t.Fatalf("job = %+v, want done", js)
	}
	var res struct {
		Shortcut     string `json:"shortcut"`
		Source       string `json:"source"`
		CoveredParts int    `json:"covered_parts"`
	}
	if err := json.Unmarshal(js.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.CoveredParts != 16 || res.Source != "built" {
		t.Fatalf("async result = %+v, want a cold build covering 16 parts", res)
	}

	// The synchronous path now hits the same cache entry.
	var sync struct {
		Shortcut string `json:"shortcut"`
		Cached   bool   `json:"cached"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:16", "seed": 3},
		http.StatusOK, &sync)
	if !sync.Cached || sync.Shortcut != res.Shortcut {
		t.Errorf("sync follow-up = %+v, want a cache hit on %s", sync, res.Shortcut)
	}

	// The job shows up in the listing, and canceling a done job is 409.
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=done", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Errorf("job listing = %+v, want exactly the done job", list.Jobs)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil, http.StatusConflict, nil)

	// Stats carry the async gauges.
	var stats struct {
		Stats service.Stats `json:"stats"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Stats.AsyncSubmitted != 1 || stats.Stats.AsyncDone != 1 ||
		stats.Stats.AsyncQueued != 0 || stats.Stats.AsyncRunning != 0 {
		t.Errorf("async stats = %+v, want 1 submitted and done, queue drained", stats.Stats)
	}
}

// TestAsyncJobsAndErrors covers async query jobs and the error statuses of
// the job endpoints.
func TestAsyncJobsAndErrors(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2}, jobs.Config{Workers: 2})

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)

	// Async MST completes with the same payload as the sync endpoint.
	var sub jobStatus
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "mst", "graph": g.Graph, "async": true},
		http.StatusAccepted, &sub)
	js := waitJob(t, ts.URL, sub.ID)
	if js.State != "done" {
		t.Fatalf("async mst = %+v, want done", js)
	}
	var mst struct {
		Weight float64 `json:"weight"`
		Edges  int     `json:"edges"`
	}
	if err := json.Unmarshal(js.Result, &mst); err != nil {
		t.Fatal(err)
	}
	if mst.Edges != 63 {
		t.Errorf("async mst edges = %d, want 63", mst.Edges)
	}

	// A shortcut request on an unknown graph is resolved before
	// acceptance: 404, no job.
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": "00000000000000ff", "partition": "blobs:4", "async": true},
		http.StatusNotFound, nil)
	// A query job on an unknown graph is accepted and then fails, with
	// the engine error recorded.
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "mst", "graph": "00000000000000ff", "async": true},
		http.StatusAccepted, &sub)
	js = waitJob(t, ts.URL, sub.ID)
	if js.State != "failed" || js.Error == "" {
		t.Fatalf("job on unknown graph = %+v, want failed with an error", js)
	}

	// Unknown async kind is rejected before acceptance.
	postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"kind": "frobnicate", "async": true}, http.StatusBadRequest, nil)
	// Job endpoint statuses: malformed id, unknown id, bad wait, unknown
	// cancel.
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/zzz", nil, http.StatusBadRequest, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/00000000000000aa", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"?wait=bogus", nil, http.StatusOK, nil) // terminal: wait ignored
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/00000000000000aa", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=nosuch", nil, http.StatusBadRequest, nil)
}

// TestBatch submits a mixed batch, drains it, and checks batch-level
// validation accepts nothing when any item is malformed.
func TestBatch(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 4}, jobs.Config{Workers: 4})

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)

	// 8 distinct cold builds plus one MST job.
	reqs := make([]map[string]any, 0, 9)
	for seed := 0; seed < 8; seed++ {
		reqs = append(reqs, map[string]any{"graph": g.Graph, "partition": "blobs:12", "seed": seed})
	}
	reqs = append(reqs, map[string]any{"kind": "mst", "graph": g.Graph})
	var batch struct {
		Jobs []jobStatus `json:"jobs"`
	}
	postJSON(t, ts.URL+"/v1/batch", map[string]any{"requests": reqs}, http.StatusAccepted, &batch)
	if len(batch.Jobs) != 9 {
		t.Fatalf("batch accepted %d jobs, want 9", len(batch.Jobs))
	}
	keys := map[string]bool{}
	for _, j := range batch.Jobs {
		got := waitJob(t, ts.URL, j.ID)
		if got.State != "done" {
			t.Fatalf("batch job %s (%s) = %+v, want done", j.ID, j.Kind, got)
		}
		if j.Kind == "shortcut" {
			var res struct {
				Shortcut string `json:"shortcut"`
			}
			if err := json.Unmarshal(got.Result, &res); err != nil {
				t.Fatal(err)
			}
			keys[res.Shortcut] = true
		}
	}
	if len(keys) != 8 {
		t.Errorf("batch built %d distinct shortcuts, want 8", len(keys))
	}

	// Whole-batch validation: one malformed item rejects everything.
	var stats struct {
		Stats service.Stats `json:"stats"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	before := stats.Stats.AsyncSubmitted
	postJSON(t, ts.URL+"/v1/batch", map[string]any{"requests": []map[string]any{
		{"graph": g.Graph, "partition": "blobs:12"},
		{"kind": "nosuch"},
	}}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/batch", map[string]any{"requests": []map[string]any{}}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Stats.AsyncSubmitted != before {
		t.Errorf("rejected batches enqueued jobs: submitted %d → %d", before, stats.Stats.AsyncSubmitted)
	}
}

// TestAsyncQueueFull checks 429 on a saturated queue, including the
// partial-acceptance report of /v1/batch.
func TestAsyncQueueFull(t *testing.T) {
	eng := service.New(service.Config{Workers: 1})
	defer eng.Close()
	// Manager deliberately not started: nothing drains, so the depth-2
	// queue saturates deterministically.
	srv, h := newServer(eng, jobs.Config{QueueDepth: 2}, serverOptions{})
	defer srv.mgr.Close()
	ts := serveLoop(t, h)
	defer ts.Close()

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "path:4"}, http.StatusOK, &g)
	sc := map[string]any{"graph": g.Graph, "partition": "singletons", "async": true}
	postJSON(t, ts.URL+"/v1/shortcuts", sc, http.StatusAccepted, nil)
	postJSON(t, ts.URL+"/v1/shortcuts", sc, http.StatusAccepted, nil)
	postJSON(t, ts.URL+"/v1/shortcuts", sc, http.StatusTooManyRequests, nil)

	// Batch with zero remaining slots: the first item already fails,
	// reporting zero accepted.
	var partial struct {
		Error string      `json:"error"`
		Jobs  []jobStatus `json:"jobs"`
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"graph":"`+g.Graph+`","partition":"singletons"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch into full queue: status %d, want 429", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.Jobs) != 0 || partial.Error == "" {
		t.Errorf("partial batch report = %+v, want 0 accepted with an error", partial)
	}
}

// TestPartitionMemoEvictedOnDelete is the regression test for the memo
// leak: deleting a graph must drop its key memo entries and release their
// budget, and a re-ingested graph must be re-parsed fresh. The uppercase
// row spells the fingerprint the way ParseFingerprint also accepts: the
// memo entry must still land under the graph the delete sweeps.
func TestPartitionMemoEvictedOnDelete(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spell func(string) string
	}{
		{"canonical", func(fp string) string { return fp }},
		{"uppercase", strings.ToUpper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, srv := newTestServer(t, service.Config{Workers: 2}, jobs.Config{})

			var g struct {
				Graph string `json:"graph"`
			}
			postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)
			build := map[string]any{"graph": tc.spell(g.Graph), "partition": "blobs:8", "seed": 1}
			postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, nil)
			if n := srv.keyMemoLen(); n != 1 {
				t.Fatalf("key memo count after build = %d, want 1", n)
			}
			doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+g.Graph, nil, http.StatusOK, nil)
			if n := srv.keyMemoLen(); n != 0 {
				t.Fatalf("%d key memo entries survived the delete", n)
			}
			// Re-ingest and rebuild: parsed fresh against the new representative.
			postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)
			postJSON(t, ts.URL+"/v1/shortcuts", build, http.StatusOK, nil)
			if n := srv.keyMemoLen(); n != 1 {
				t.Errorf("key memo count after re-ingest = %d, want 1", n)
			}
			// A spec past keyMemoSpec bytes is served but never memoized.
			long := map[string]any{"graph": g.Graph, "partition": "blobs:" + strings.Repeat("0", keyMemoSpec) + "8"}
			postJSON(t, ts.URL+"/v1/shortcuts", long, http.StatusOK, nil)
			if n := srv.keyMemoLen(); n != 1 {
				t.Errorf("key memo count after a %d-byte spec = %d, want 1", keyMemoSpec+7, n)
			}
		})
	}
}

// TestNoPartitionOutlivesCacheEntry pins what the key memo is for: the
// daemon remembers a request's shortcut key, never its partition, so a
// partition is garbage once the cache entry built with it is evicted.
// With a one-entry cache every new key evicts the previous one; a weak
// pointer to each evicted entry's partition must be nil after a GC. Each
// key is requested twice, so the memo holds an entry for all of them.
func TestNoPartitionOutlivesCacheEntry(t *testing.T) {
	ts, srv := newTestServer(t, service.Config{Workers: 2, CacheCapacity: 1, CacheShards: 1}, jobs.Config{})
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:16x16"}, http.StatusOK, &g)
	var evicted []weak.Pointer[partition.Partition]
	for seed := 1; seed <= 4; seed++ {
		var resp struct {
			Shortcut string `json:"shortcut"`
		}
		req := map[string]any{"graph": g.Graph, "partition": "blobs:8", "seed": seed}
		postJSON(t, ts.URL+"/v1/shortcuts", req, http.StatusOK, &resp)
		postJSON(t, ts.URL+"/v1/shortcuts", req, http.StatusOK, nil)
		key, err := service.ParseFingerprint(resp.Shortcut)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := srv.eng.Shortcut(key)
		if !ok {
			t.Fatalf("seed %d: key %s not resident right after its build", seed, key)
		}
		if seed < 4 {
			evicted = append(evicted, weak.Make(c.Parts))
		}
	}
	if n := srv.keyMemoLen(); n != 4 {
		t.Fatalf("key memo holds %d entries, want 4", n)
	}
	runtime.GC()
	for i, wp := range evicted {
		if wp.Value() != nil {
			t.Errorf("seed %d: partition still reachable after its cache entry was evicted", i+1)
		}
	}
}

// TestBadRowsSpec400 is the regression test for a spec that crashed the
// daemon: rows:-1x-4 passed GridRows' size check on grid:2x2 (-1 x -4 =
// 4) and panicked in makeslice. It must be a 400 — sync, async and in a
// batch — with no job record written, and the daemon keeps serving.
func TestBadRowsSpec400(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2}, jobs.Config{Workers: 1})
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:2x2"}, http.StatusOK, &g)
	bad := map[string]any{"graph": g.Graph, "partition": "rows:-1x-4"}
	postJSON(t, ts.URL+"/v1/shortcuts", bad, http.StatusBadRequest, nil)
	async := map[string]any{"graph": g.Graph, "partition": "rows:-1x-4", "async": true}
	postJSON(t, ts.URL+"/v1/shortcuts", async, http.StatusBadRequest, nil)
	batch := map[string]any{"requests": []any{
		map[string]any{"graph": g.Graph, "partition": "rows:2x2"},
		bad,
	}}
	postJSON(t, ts.URL+"/v1/batch", batch, http.StatusBadRequest, nil)
	// An unknown graph is caught before the 202 too.
	unknown := map[string]any{"graph": "00000000000000ff", "partition": "rows:2x2", "async": true}
	postJSON(t, ts.URL+"/v1/shortcuts", unknown, http.StatusNotFound, nil)
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(list.Jobs))
	}
	postJSON(t, ts.URL+"/v1/shortcuts", map[string]any{"graph": g.Graph, "partition": "rows:2x2"}, http.StatusOK, nil)
}

// TestWrappingBuildOptions400 sends build options whose level products
// c = cf·delta'·D and b = bf·delta' overflow an int64 on grid:16x16 (tree
// depth 16). Over their bounds, each is a 400 naming the option, sync,
// async and in a batch, before anything is built or a job is recorded;
// the daemon keeps serving.
func TestWrappingBuildOptions400(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2}, jobs.Config{Workers: 1})
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:16x16"}, http.StatusOK, &g)
	for _, opts := range []string{"delta=576460752303423489,cf=16", "delta=2305843009213693952,cf=4"} {
		bad := map[string]any{"graph": g.Graph, "partition": "blobs:16", "options": opts}
		var e struct {
			Error string `json:"error"`
		}
		postJSON(t, ts.URL+"/v1/shortcuts", bad, http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, "delta ") {
			t.Errorf("options %q: error %q does not name delta", opts, e.Error)
		}
		async := map[string]any{"graph": g.Graph, "partition": "blobs:16", "options": opts, "async": true}
		postJSON(t, ts.URL+"/v1/shortcuts", async, http.StatusBadRequest, nil)
		batch := map[string]any{"requests": []any{
			map[string]any{"graph": g.Graph, "partition": "blobs:16"},
			bad,
		}}
		postJSON(t, ts.URL+"/v1/batch", batch, http.StatusBadRequest, nil)
	}
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(list.Jobs))
	}
	var st struct {
		Stats service.Stats `json:"stats"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Stats.Builds != 0 {
		t.Fatalf("rejected requests ran %d builds", st.Stats.Builds)
	}
	ok := map[string]any{"graph": g.Graph, "partition": "blobs:16", "options": "delta=1,cf=16"}
	postJSON(t, ts.URL+"/v1/shortcuts", ok, http.StatusOK, nil)
}

// TestConcurrentGraphDeleteRace hammers ingest/delete against concurrent
// sync builds and async submissions. Run under -race: the nil-dereference
// window in handleGraphs and any engine/memo race shows up here. Every
// response must be a well-formed JSON status, never a 5xx.
func TestConcurrentGraphDeleteRace(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 4, CacheCapacity: 8},
		jobs.Config{Workers: 2, QueueDepth: 4096})

	// The fingerprint is content-derived, so every re-ingest of the spec
	// yields the same fp; learn it once.
	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:6x6"}, http.StatusOK, &g)
	fp := g.Graph

	const iters = 60
	var wg sync.WaitGroup
	fail := make(chan string, 256)
	allow := func(who string, code int, allowed ...int) {
		for _, a := range allowed {
			if code == a {
				return
			}
		}
		select {
		case fail <- fmt.Sprintf("%s: unexpected status %d", who, code):
		default:
		}
	}
	// Churners: ingest then delete, repeatedly. Two of them, so one's
	// DELETE lands inside the other's ingest (between AddGraph and the
	// response) — the exact window of the old nil-dereference panic.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/v1/graphs", "application/json",
					strings.NewReader(`{"spec":"grid:6x6"}`))
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				allow("ingest", resp.StatusCode, http.StatusOK)
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+fp, nil)
				dresp, err := http.DefaultClient.Do(req)
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, dresp.Body)
				dresp.Body.Close()
				allow("delete", dresp.StatusCode, http.StatusOK, http.StatusNotFound)
			}
		}()
	}
	// Sync builders: 200 when the graph is registered, 404 when the
	// churner won the race.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(`{"graph":%q,"partition":"blobs:6","seed":%d}`, fp, i%3)
				resp, err := http.Post(ts.URL+"/v1/shortcuts", "application/json", strings.NewReader(body))
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				allow("build", resp.StatusCode, http.StatusOK, http.StatusNotFound)
			}
		}(w)
	}
	// Async submitter: a submission is resolved before acceptance, so it
	// is accepted, or a 404 while the graph is deleted; an accepted job
	// may still fail with unknown-graph, which is fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			body := fmt.Sprintf(`{"graph":%q,"partition":"blobs:6","seed":%d,"async":true}`, fp, i%3)
			resp, err := http.Post(ts.URL+"/v1/shortcuts", "application/json", strings.NewReader(body))
			if err != nil {
				fail <- err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			allow("async", resp.StatusCode, http.StatusAccepted, http.StatusNotFound)
		}
	}()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	// The daemon is still healthy.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after race: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestRequestBodyLimit proves an oversized body maps to 413, not 400: a
// chunked JSON body that streams past the cap, and a request declaring
// more than the cap — binary on both binary routes, or JSON on
// /v1/shortcuts and on the routes decode reads (/v1/graphs, /v1/jobs,
// /v1/batch) — which answers 413 before a body byte is sent.
func TestRequestBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	// 65 MiB of spec, past the 64 MiB cap, with no declared length: the
	// client sends it chunked, so only the cap on the stream can trip.
	body := append([]byte(`{"spec":"`), bytes.Repeat([]byte{'a'}, 65<<20)...)
	body = append(body, `"}`...)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength, req.TransferEncoding = -1, []string{"chunked"}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body: status %d, want 413", resp.StatusCode)
	}
	// The routes that read a body whole with readBody refuse a declared
	// length over the cap before any byte is read.
	for _, path := range binaryRoutes {
		resp := sendDeclared(t, ts.Listener.Addr().String(), path, wire.ContentType, maxBody+1, nil, false)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: declared %d bytes: status %d, want 413", path, maxBody+1, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/shortcuts", "/v1/graphs", "/v1/jobs", "/v1/batch"} {
		resp := sendDeclared(t, ts.Listener.Addr().String(), path, "application/json", maxBody+1, nil, false)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("JSON %s: declared %d bytes: status %d, want 413", path, maxBody+1, resp.StatusCode)
		}
	}
}

// TestBinaryRequestBodyCap: a binary shortcut request shares the JSON
// body cap (64 MiB). A frame well past 1 MiB — an explicit part list a
// relay might carry — is read and resolved, so a request for a graph the
// node does not know answers 404, not 413.
func TestBinaryRequestBodyCap(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	part := make([]int, 300_000)
	for i := range part {
		part[i] = 1<<21 + i // four uvarint bytes each
	}
	frame := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: 0x1234, Parts: [][]int{part}})
	if len(frame) <= 1<<20 {
		t.Fatalf("frame is %d bytes, want more than 1 MiB", len(frame))
	}
	resp, err := http.Post(ts.URL+"/v1/shortcuts", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("oversized-for-1MiB frame, unknown graph: status %d, want 404: %s", resp.StatusCode, body)
	}
}

// binaryRoutes are the two routes that read a binary body with readBody.
var binaryRoutes = []string{"/v1/shortcuts", "/v1/graphs"}

// sendDeclared writes a POST of contentType to path whose Content-Length
// header declares declared bytes, then the body bytes and, if closeWrite,
// a half-close, and returns the answer.
func sendDeclared(t *testing.T, addr, path, contentType string, declared int64, body []byte, closeWrite bool) *http.Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, addr, contentType, declared)
	if _, err := c.Write(append([]byte(req), body...)); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBinaryBodyDeclaredLengthNotTrusted: a binary body's buffer grows with
// the bytes that arrive, not with the Content-Length the client declares.
// A request declaring 64 MiB that sends a few bytes and stops answers 400
// without the server ever allocating anything near 64 MiB, on both
// binary routes.
func TestBinaryBodyDeclaredLengthNotTrusted(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	addr := ts.Listener.Addr().String()
	for _, path := range binaryRoutes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := sendDeclared(t, addr, path, wire.ContentType, maxBody, []byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: truncated body: status %d, want 400", path, resp.StatusCode)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: a body declaring %d bytes that sent 8 allocated %d bytes", path, maxBody, grew)
		}
	}
}

// TestReadBodyGrowsToDeclaredLength: a body longer than wire.DeclaredChunk arrives
// whole through readBody's doubling reads, into a buffer no larger than
// the body, both fresh and over a pooled buffer too small for it.
func TestReadBodyGrowsToDeclaredLength(t *testing.T) {
	body := make([]byte, 5*wire.DeclaredChunk+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	for _, buf := range [][]byte{nil, make([]byte, 0, 100)} {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		got, err := readBody(httptest.NewRecorder(), r, buf)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("readBody(cap %d): %d bytes, err %v; want the %d-byte body", cap(buf), len(got), err, len(body))
		}
		if cap(got) > len(body) {
			t.Errorf("readBody(cap %d): cap %d for a %d-byte body", cap(buf), cap(got), len(body))
		}
	}
}

// TestRestartQueuedJobCompletes is the async restart e2e: a job accepted
// (202) but never dispatched before "SIGTERM" — simulated by tearing the
// stack down with the dispatcher pool never started — is re-enqueued from
// the durable store on warm start and completes.
func TestRestartQueuedJobCompletes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st})
	srv1, h1 := newServer(eng, jobs.Config{Store: st}, serverOptions{}) // dispatchers never started
	ts := serveLoop(t, h1)

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
	var sub jobStatus
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": g.Graph, "partition": "blobs:12", "seed": 9, "async": true},
		http.StatusAccepted, &sub)
	var snap jobStatus
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, http.StatusOK, &snap)
	if snap.State != "queued" {
		t.Fatalf("pre-restart job state = %s, want queued", snap.State)
	}
	ts.Close()
	srv1.mgr.Close()
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := service.New(service.Config{Workers: 2, Store: st2})
	defer func() {
		eng2.Close()
		st2.Close()
	}()
	if _, err := eng2.WarmStart(); err != nil {
		t.Fatal(err)
	}
	srv2, h2 := newServer(eng2, jobs.Config{Store: st2}, serverOptions{})
	requeued, err := srv2.mgr.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("Recover re-enqueued %d jobs, want the 1 accepted pre-restart", requeued)
	}
	srv2.mgr.Start()
	defer srv2.mgr.Close()
	ts2 := serveLoop(t, h2)
	defer ts2.Close()

	js := waitJob(t, ts2.URL, sub.ID)
	if js.State != "done" {
		t.Fatalf("post-restart job = %+v, want done", js)
	}
	var res struct {
		Shortcut     string `json:"shortcut"`
		CoveredParts int    `json:"covered_parts"`
	}
	if err := json.Unmarshal(js.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.CoveredParts != 12 || res.Shortcut == "" {
		t.Fatalf("post-restart result = %+v, want a valid 12-part shortcut", res)
	}
	// The completed record is durable: the store verifies clean and the
	// job is listed done.
	if problems := st2.Verify(); len(problems) != 0 {
		t.Errorf("store verify after drain: %v", problems)
	}
}

// TestRestartPoisonJobFails: a durable shortcut job whose spec cannot
// resolve, as a daemon that did not resolve before accepting recorded it
// (rows:-1x-4 on grid:2x2 used to panic in partition.GridRows), fails on
// the warm start that re-enqueues it with the 400 a synchronous request
// gets. The daemon keeps serving, and a second restart does not run the
// terminal job again.
func TestRestartPoisonJobFails(t *testing.T) {
	dir := t.TempDir()
	// boot opens the store in dir and stands the daemon up over it: warm
	// start, job recovery, then the dispatchers if start is set.
	boot := func(start bool) (*server, *testServer, int, func()) {
		t.Helper()
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		eng := service.New(service.Config{Workers: 2, Store: st})
		if _, err := eng.WarmStart(); err != nil {
			t.Fatal(err)
		}
		srv, h := newServer(eng, jobs.Config{Store: st}, serverOptions{})
		requeued, err := srv.mgr.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if start {
			srv.mgr.Start()
		}
		ts := serveLoop(t, h)
		return srv, ts, requeued, func() {
			ts.Close()
			srv.mgr.Close()
			eng.Close()
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}
	}

	srv, ts, requeued, stop := boot(false) // dispatchers never started
	var g graphResponse
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:2x2"}, http.StatusOK, &g)
	poison := map[string]any{"graph": g.Graph, "partition": "rows:-1x-4"}
	payload, err := json.Marshal(poison)
	if err != nil {
		t.Fatal(err)
	}
	// Straight to the manager: the handler would resolve the spec and
	// answer 400 before any record is written.
	rec, err := srv.mgr.Submit(jobKindShortcut, payload)
	if err != nil || requeued != 0 {
		t.Fatalf("submit to a fresh store: %v (%d re-enqueued)", err, requeued)
	}
	stop()

	_, ts, requeued, stop = boot(true)
	if requeued != 1 {
		t.Fatalf("first restart re-enqueued %d jobs, want the poison job", requeued)
	}
	js := waitJob(t, ts.URL, rec.ID.String())
	var sync struct {
		Error string `json:"error"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts", poison, http.StatusBadRequest, &sync)
	if js.State != "failed" || js.Error == "" || js.Error != sync.Error {
		t.Fatalf("poison job after restart = %+v, want failed with the synchronous 400's error %q", js, sync.Error)
	}
	var ok shortcutResponse
	postJSON(t, ts.URL+"/v1/shortcuts", map[string]any{"graph": g.Graph, "partition": "blobs:2", "seed": 1},
		http.StatusOK, &ok)
	var stats struct {
		Stats service.Stats `json:"stats"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if s := stats.Stats; s.AsyncFailed != 1 || s.AsyncPanics != 0 || s.AsyncRetries != 0 {
		t.Errorf("stats after the poison job: failed %d, panics %d, retries %d; want 1, 0, 0",
			s.AsyncFailed, s.AsyncPanics, s.AsyncRetries)
	}
	stop()

	_, ts, requeued, stop = boot(true)
	defer stop()
	if requeued != 0 {
		t.Fatalf("second restart re-enqueued %d jobs, want none", requeued)
	}
	var again struct {
		jobStatus
		Attempts int `json:"attempts"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+rec.ID.String(), nil, http.StatusOK, &again)
	if again.State != "failed" || again.Error != js.Error || again.Attempts != 1 {
		t.Errorf("poison job after the second restart = %+v, want failed once with %q", again, js.Error)
	}
}
