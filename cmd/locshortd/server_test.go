package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
func newTestServer(t *testing.T, cfg service.Config, jcfg jobs.Config) (*httptest.Server, *server) {
	t.Helper()
	eng := service.New(cfg)
	srv, h := newServer(eng, jcfg, serverOptions{})
	srv.mgr.Start()
	ts := httptest.NewServer(h)
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
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st})
	srv1, h1 := newServer(eng, jobs.Config{Store: st}, serverOptions{})
	srv1.mgr.Start()
	ts := httptest.NewServer(h1)

	var g struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
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
	ts2 := httptest.NewServer(h2)
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
		t.Fatalf("post-restart graph list = %+v, want the persisted 12x12 grid", list)
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
	ts := httptest.NewServer(h)
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
	ts := httptest.NewServer(h)
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

// TestRequestBodyLimit proves an oversized body maps to 413, not 400.
func TestRequestBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	// 65 MiB of spec, past the 64 MiB cap.
	body := append([]byte(`{"spec":"`), bytes.Repeat([]byte{'a'}, 65<<20)...)
	body = append(body, `"}`...)
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
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
	ts := httptest.NewServer(h1)

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
	ts2 := httptest.NewServer(h2)
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
