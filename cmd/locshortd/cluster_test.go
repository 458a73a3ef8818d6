package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// clusterSwap lets the test bind listeners (to learn their addresses)
// before the servers that own them are constructed.
type clusterSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *clusterSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *clusterSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	addr string
	st   *store.Store
	cl   *cluster.Cluster
	eng  *service.Engine
	srv  *server
	ts   *testServer
	url  string
}

// newNodeCluster stands up n complete locshortd nodes — store, cluster
// view, engine with peer fetch, HTTP API with forwarding — sharing one
// ring, exactly as -cluster-self/-cluster-peers wires them in main.
func newNodeCluster(t testing.TB, n int, configs ...nodeConfig) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	swaps := make([]*clusterSwap, n)
	addrs := make([]string, n)
	for i := range nodes {
		swaps[i] = &clusterSwap{}
		nodes[i] = listenNode(t, "127.0.0.1:0", swaps[i])
		addrs[i] = nodes[i].addr
	}
	for i, node := range nodes {
		swaps[i].set(node.start(t, i, addrs, configs))
	}
	return nodes
}

// listenNode binds a node's listener on addr and serves h on it through
// the connection loop, before the node behind h is built.
func listenNode(t testing.TB, addr string, h http.Handler) *clusterNode {
	t.Helper()
	ts := serveLoopAt(t, addr, h)
	t.Cleanup(ts.Close)
	return &clusterNode{addr: ts.Listener.Addr().String(), ts: ts, url: ts.URL}
}

// start builds node i of the cluster whose members are addrs — store,
// cluster view, engine with peer fetch, HTTP API with forwarding — and
// returns its API handler.
func (node *clusterNode) start(t testing.TB, i int, addrs []string, configs []nodeConfig) http.Handler {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "data"), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self:         node.addr,
		Nodes:        addrs,
		VNodes:       16,
		SyncInterval: time.Hour, // tests drive SyncNow explicitly
		FetchTimeout: 5 * time.Second,
		DownBackoff:  time.Minute, // a killed node is dialed ever more rarely, at last once a minute
		Store:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, jcfg := service.Config{Workers: 2, Store: st, Peers: cl}, jobs.Config{Store: st}
	for _, c := range configs {
		c(i, &cfg, &jcfg)
	}
	eng := service.New(cfg)
	cl.SetRegistrar(eng)
	srv, h := newServer(eng, jcfg, serverOptions{cluster: cl, store: st})
	srv.mgr.Start()
	node.st, node.cl, node.eng, node.srv = st, cl, eng, srv
	t.Cleanup(func() {
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})
	return h
}

// nodeConfig adjusts node i's engine and job manager configuration before
// newNodeCluster starts the node.
type nodeConfig func(i int, cfg *service.Config, jcfg *jobs.Config)

// panickyStore is a node's store with a bug on the build path: while
// armed, GetShortcut panics inside the engine's build job.
type panickyStore struct {
	service.Store
	armed *atomic.Bool
}

func (p panickyStore) GetShortcut(key service.Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {

	if p.armed.Load() {
		panic("store bug")
	}
	return p.Store.GetShortcut(key, g, parts)
}

// totalBuilds sums completed constructions across every node's engine.
func totalBuilds(nodes []*clusterNode) uint64 {
	var total uint64
	for _, n := range nodes {
		if n != nil {
			total += n.eng.Stats().Builds
		}
	}
	return total
}

// postShortcut posts one build request and decodes the response; header,
// when non-empty, is set as X-Locshort-Forwarded.
func postShortcut(t *testing.T, url string, body map[string]any, forwarded bool) shortcutResponse {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/shortcuts", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if forwarded {
		req.Header.Set(cluster.ForwardedHeader, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s/v1/shortcuts: status %d: %s", url, resp.StatusCode, e["error"])
	}
	var out shortcutResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterRouting: a graph ingested on one node is requestable on every
// node, the key's ring owner executes the build no matter which node the
// client dialed, and the whole cluster pays exactly one construction.
func TestClusterRouting(t *testing.T) {
	nodes := newNodeCluster(t, 3)

	var g graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
	// The ingest broadcast registered the graph on every engine.
	for _, n := range nodes {
		fp, err := service.ParseFingerprint(g.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := n.eng.Graph(fp); !ok {
			t.Fatalf("node %s does not know the broadcast graph", n.addr)
		}
	}

	build := map[string]any{"graph": g.Graph, "partition": "blobs:8", "seed": 3}
	resps := make([]shortcutResponse, 3)
	for i, n := range nodes {
		resps[i] = postShortcut(t, n.url, build, false)
	}
	for i, r := range resps[1:] {
		if r.Shortcut != resps[0].Shortcut {
			t.Fatalf("node %d resolved a different key: %s != %s", i+1, r.Shortcut, resps[0].Shortcut)
		}
	}
	if got := totalBuilds(nodes); got != 1 {
		t.Fatalf("cluster-wide builds = %d, want exactly 1", got)
	}
	// Every response was executed by the same node: the ring owner.
	key, err := service.ParseFingerprint(resps[0].Shortcut)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := nodes[0].cl.Owner(key)
	for i, r := range resps {
		if r.ServedBy != owner {
			t.Fatalf("response %d served_by %q, want owner %q", i, r.ServedBy, owner)
		}
	}
	// The two non-owner nodes forwarded.
	var forwards uint64
	for _, n := range nodes {
		forwards += n.cl.Stats().Forwards
	}
	if forwards < 2 {
		t.Fatalf("forwards = %d, want >= 2", forwards)
	}
}

// TestClusterPeerFetch: a shortcut built on node A is served from node B's
// peer-fetch path — source "peer", no second build anywhere.
func TestClusterPeerFetch(t *testing.T) {
	nodes := newNodeCluster(t, 3)

	var g graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
	build := map[string]any{"graph": g.Graph, "partition": "blobs:8", "seed": 4}

	first := postShortcut(t, nodes[0].url, build, false)
	key, err := service.ParseFingerprint(first.Shortcut)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := nodes[0].cl.Owner(key)

	// Pick a node that did not build and force it to serve locally (the
	// forwarded flag, as if relayed): its miss chain is cache miss → store
	// miss → peer fetch from the owner's store. The owner persists its
	// build detached from the answer, so wait until its store holds the
	// record before asking.
	var other *clusterNode
	for _, n := range nodes {
		if n.addr == owner {
			eventually(t, "the owner's persist", func() bool { return n.st.HasShortcut(key) })
		} else if other == nil {
			other = n
		}
	}
	resp := postShortcut(t, other.url, build, true)
	if resp.Source != "peer" {
		t.Fatalf("source = %q, want \"peer\"", resp.Source)
	}
	if resp.ServedBy != other.addr {
		t.Fatalf("served_by = %q, want %q (local serving)", resp.ServedBy, other.addr)
	}
	if resp.Shortcut != first.Shortcut {
		t.Fatalf("peer fetch resolved key %s, want %s", resp.Shortcut, first.Shortcut)
	}
	if got := totalBuilds(nodes); got != 1 {
		t.Fatalf("cluster-wide builds = %d, want exactly 1 (peer fetch must not rebuild)", got)
	}
	if hits := other.eng.Stats().PeerHits; hits != 1 {
		t.Fatalf("peer hits on %s = %d, want 1", other.addr, hits)
	}
	// The fetch imported the record: it is in the fetcher's store now.
	if !other.st.HasShortcut(key) {
		t.Fatal("peer-fetched record was not imported into the local store")
	}
}

// TestClusterKillOneNode: after anti-entropy has replicated the record,
// killing any one node leaves every request on the survivors answerable
// with zero errors.
func TestClusterKillOneNode(t *testing.T) {
	nodes := newNodeCluster(t, 3)

	var g graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &g)
	build := map[string]any{"graph": g.Graph, "partition": "blobs:8", "seed": 5}
	first := postShortcut(t, nodes[0].url, build, false)
	key, err := service.ParseFingerprint(first.Shortcut)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := nodes[0].cl.Owner(key)

	// Replicate: every node pulls what it should own.
	for _, n := range nodes {
		if sr := n.cl.SyncNow(t.Context()); sr.Errors != 0 {
			t.Fatalf("sync on %s: %d errors", n.addr, sr.Errors)
		}
	}

	// Kill the owner — the worst case: both survivors must fail over.
	var survivors []*clusterNode
	for i, n := range nodes {
		if n.addr == owner {
			n.ts.Close()
			nodes[i] = nil
			continue
		}
		survivors = append(survivors, n)
	}

	// Every request on every survivor must succeed. The first one pays the
	// failed dial to the dead owner, marks it down, and falls back to
	// local serving; the rest skip the corpse outright.
	for round := 0; round < 3; round++ {
		for _, n := range survivors {
			resp := postShortcut(t, n.url, build, false)
			if resp.Shortcut != first.Shortcut {
				t.Fatalf("survivor %s resolved key %s, want %s", n.addr, resp.Shortcut, first.Shortcut)
			}
		}
	}
	if got := totalBuilds(survivors); got > 1 {
		t.Fatalf("builds on survivors = %d; failover must reuse the replicated record", got)
	}
}

// TestClusterDriftHoldsReadyz: a node whose ring config disagrees with a
// reachable peer's answers 503 on /readyz until the configs converge.
func TestClusterDriftHoldsReadyz(t *testing.T) {
	nodes := newNodeCluster(t, 3)

	// Sabotage node 0: same membership, different vnode count.
	drifted, err := cluster.New(cluster.Config{
		Self:         nodes[0].addr,
		Nodes:        []string{nodes[0].addr, nodes[1].addr, nodes[2].addr},
		VNodes:       8,
		SyncInterval: time.Hour,
		Store:        nodes[0].st,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].srv.cl = drifted
	if d, _ := drifted.CheckConfig(t.Context()); !d {
		t.Fatal("drifted node did not detect the disagreement")
	}

	resp, err := http.Get(nodes[0].url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on drifted node: %d, want 503", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), "drift") {
		t.Fatalf("/readyz body %q does not name the drift", body.String())
	}

	// Peers probing node 0 see the foreign hash and latch drift too.
	if sr := nodes[1].cl.SyncNow(t.Context()); sr.Drift {
		// nodes[1] still serves the OLD handler for node 0 (srv.cl swap
		// only changes readiness), so drift here depends on which side
		// answers; either way its own /readyz must reflect Drift().
		if r2, err := http.Get(nodes[1].url + "/readyz"); err == nil {
			defer r2.Body.Close()
			if r2.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("peer latched drift but /readyz = %d", r2.StatusCode)
			}
		}
	}

	// Heal: restore the matching config and re-probe — ready again.
	nodes[0].srv.cl = nodes[0].cl
	if d, _ := nodes[0].cl.CheckConfig(t.Context()); d {
		t.Fatal("drift did not clear after configs converged")
	}
	r3, err := http.Get(nodes[0].url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after heal: %d, want 200", r3.StatusCode)
	}
}

// relayAnswer is one /v1/shortcuts answer reduced to what the relay tests
// compare across nodes, whichever encoding carried it.
type relayAnswer struct {
	key, servedBy, source string
	// sourceHeader is X-Locshort-Source; body the raw response body.
	sourceHeader string
	body         []byte
}

// encodingName labels a test row by wire encoding.
func encodingName(binary bool) string {
	if binary {
		return "binary"
	}
	return "json"
}

// askShortcut posts one build request to url with the body in JSON (jsonReq)
// or as a binary frame (frame), asking for a JSON or a binary answer, and
// fails the test on anything but 200.
func askShortcut(t *testing.T, url string, jsonReq map[string]any, frame wire.ShortcutRequest,
	binaryBody, binaryAccept bool) relayAnswer {
	t.Helper()
	body := wire.AppendShortcutRequest(nil, frame)
	ct := wire.ContentType
	if !binaryBody {
		var err error
		if body, err = json.Marshal(jsonReq); err != nil {
			t.Fatal(err)
		}
		ct = "application/json"
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/shortcuts", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if binaryAccept {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/shortcuts: status %d: %s", url, resp.StatusCode, raw)
	}
	a := relayAnswer{sourceHeader: resp.Header.Get(wire.HeaderSource), body: raw}
	if binaryAccept {
		if ct := resp.Header.Get("Content-Type"); !wire.IsBinary(ct) {
			t.Fatalf("binary Accept answered with Content-Type %q", ct)
		}
		a.key = resp.Header.Get(wire.HeaderKey)
		a.servedBy = resp.Header.Get(wire.HeaderServedBy)
		a.source = a.sourceHeader
		return a
	}
	var out shortcutResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("JSON answer does not decode: %v: %s", err, raw)
	}
	a.key, a.servedBy, a.source = out.Shortcut, out.ServedBy, out.Source
	return a
}

// TestClusterRelayMatrix pins cluster routing for every request shape and
// encoding: {JSON, binary} body × {JSON, binary} Accept × {spec, explicit
// parts}, each row sent to every node of a 3-node ring. The key's ring
// owner executes every request, the whole cluster builds once per row,
// non-owners relay the owner's answer (a binary one byte for byte, its
// source header prefixed "forward:"), and a JSON body's source is the
// owner's own value.
func TestClusterRelayMatrix(t *testing.T) {
	nodes := newNodeCluster(t, 3)
	var gr graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	row := 0
	for _, shape := range []string{"spec", "parts"} {
		for _, binaryBody := range []bool{false, true} {
			for _, binaryAccept := range []bool{false, true} {
				row++
				// A fresh seed per row gives every row its own key (and
				// so, across rows, a spread of owners).
				seed := int64(100 + row)
				name := shape + "/body=" + encodingName(binaryBody) + "/accept=" + encodingName(binaryAccept)
				t.Run(name, func(t *testing.T) {
					jsonReq := map[string]any{"graph": gr.Graph}
					frame := wire.ShortcutRequest{Graph: fp}
					if shape == "spec" {
						jsonReq["partition"], jsonReq["seed"] = "blobs:8", seed
						frame.Partition, frame.Seed = "blobs:8", seed
					} else {
						p, err := cli.ParsePartition(g, "blobs:8", seed)
						if err != nil {
							t.Fatal(err)
						}
						jsonReq["parts"], frame.Parts = p.Parts, p.Parts
					}
					before := totalBuilds(nodes)
					answers := make([]relayAnswer, len(nodes))
					for i, n := range nodes {
						answers[i] = askShortcut(t, n.url, jsonReq, frame, binaryBody, binaryAccept)
					}
					key, err := service.ParseFingerprint(answers[0].key)
					if err != nil {
						t.Fatalf("answer key %q: %v", answers[0].key, err)
					}
					owner, _ := nodes[0].cl.Owner(key)
					for i, a := range answers {
						if a.key != answers[0].key {
							t.Errorf("node %d resolved key %s, node 0 %s", i, a.key, answers[0].key)
						}
						if a.servedBy != owner {
							t.Errorf("node %d: served by %q, want the owner %q", i, a.servedBy, owner)
						}
						if !binaryAccept {
							if strings.HasPrefix(a.source, "forward:") || a.source == "" {
								t.Errorf("node %d: JSON source %q, want the owner's own source", i, a.source)
							}
							continue
						}
						if !bytes.Equal(a.body, answers[0].body) {
							t.Errorf("node %d: binary answer differs from node 0's", i)
						}
						src, relayed := strings.CutPrefix(a.source, "forward:")
						if relayed != (nodes[i].addr != owner) {
							t.Errorf("node %d (owner %v): source %q", i, nodes[i].addr == owner, a.source)
						}
						if src != "built" && src != "cache" {
							t.Errorf("node %d: source %q, want built or cache", i, a.source)
						}
					}
					if got := totalBuilds(nodes) - before; got != 1 {
						t.Errorf("cluster-wide builds for this row = %d, want exactly 1", got)
					}
				})
			}
		}
	}
}

// nonOwner returns a node that does not own key.
func nonOwner(t *testing.T, nodes []*clusterNode, key service.Fingerprint) *clusterNode {
	t.Helper()
	owner, _ := nodes[0].cl.Owner(key)
	for _, n := range nodes {
		if n.addr != owner {
			return n
		}
	}
	t.Fatal("every node owns the key")
	return nil
}

// specKey computes, client-side, the key a spec-form request resolves to.
func specKey(t *testing.T, g *graph.Graph, fp service.Fingerprint, spec string, seed int64) service.Fingerprint {
	t.Helper()
	p, err := cli.ParsePartition(g, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := cli.ParseBuildOptions("")
	if err != nil {
		t.Fatal(err)
	}
	return service.ShortcutKey(fp, p, opts)
}

// TestClusterRelayPushesMissingGraph: an owner that lost the graph answers
// the relay 404; the entry node pushes its copy and retries once, in
// either encoding, and the owner serves the retry.
func TestClusterRelayPushesMissingGraph(t *testing.T) {
	nodes := newNodeCluster(t, 3)
	var gr graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, binary := range []bool{false, true} {
		t.Run(encodingName(binary), func(t *testing.T) {
			seed := int64(60 + i)
			key := specKey(t, g, fp, "blobs:8", seed)
			owner, _ := nodes[0].cl.Owner(key)
			var ownerNode *clusterNode
			for _, n := range nodes {
				if n.addr == owner {
					ownerNode = n
				}
			}
			if _, err := ownerNode.eng.RemoveGraph(fp); err != nil {
				t.Fatal(err)
			}
			entry := nonOwner(t, nodes, key)
			a := askShortcut(t, entry.url,
				map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": seed},
				wire.ShortcutRequest{Graph: fp, Partition: "blobs:8", Seed: seed}, binary, binary)
			if a.key != key.String() || a.servedBy != owner {
				t.Fatalf("answer key %s served by %q, want %s by the owner %q", a.key, a.servedBy, key, owner)
			}
			if _, ok := ownerNode.eng.Graph(fp); !ok {
				t.Fatal("the owner does not know the graph after the relay's push")
			}
		})
	}
}

// TestClusterAsyncJobRelays: an async shortcut job accepted by a non-owner
// executes on the key's owner, and its result says so.
func TestClusterAsyncJobRelays(t *testing.T) {
	var armed [3]atomic.Bool
	nodes := newNodeCluster(t, 3, func(i int, cfg *service.Config, jcfg *jobs.Config) {
		cfg.Store = panickyStore{Store: cfg.Store, armed: &armed[i]}
		jcfg.Retries = 2
	})
	var gr graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	key := specKey(t, g, fp, "blobs:8", 70)
	owner, _ := nodes[0].cl.Owner(key)
	entry := nonOwner(t, nodes, key)

	var sub jobStatus
	postJSON(t, entry.url+"/v1/shortcuts",
		map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": 70, "async": true},
		http.StatusAccepted, &sub)
	js := waitJob(t, entry.url, sub.ID)
	if js.State != "done" {
		t.Fatalf("job = %+v, want done", js)
	}
	var res shortcutResponse
	if err := json.Unmarshal(js.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != owner || res.Shortcut != key.String() || res.Source != "built" {
		t.Fatalf("job result = %+v, want key %s built by the owner %q", res, key, owner)
	}
	if got := totalBuilds(nodes); got != 1 {
		t.Fatalf("cluster-wide builds = %d, want exactly 1", got)
	}

	// A panicking owner answers 500 "panic: …"; the entry treats that as
	// a panic too: the job ends failed on its first attempt, whatever
	// the retries allow, so the owner panics once.
	key = specKey(t, g, fp, "blobs:8", 71)
	owner, _ = nodes[0].cl.Owner(key)
	entry = nonOwner(t, nodes, key)
	var ownerNode *clusterNode
	for i, n := range nodes {
		if n.addr == owner {
			armed[i].Store(true)
			ownerNode = n
		}
	}
	postJSON(t, entry.url+"/v1/shortcuts",
		map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": 71, "async": true},
		http.StatusAccepted, &sub)
	js = waitJob(t, entry.url, sub.ID)
	if js.State != "failed" || js.Error != "panic: store bug" {
		t.Fatalf("job = %+v, want failed with the owner's panic", js)
	}
	var rec struct {
		Attempts int `json:"attempts"`
	}
	getJSON(t, entry.url+"/v1/jobs/"+sub.ID, &rec)
	if rec.Attempts != 1 {
		t.Errorf("job ran %d attempts, want 1", rec.Attempts)
	}
	if got := ownerNode.eng.Stats().JobPanics; got != 1 {
		t.Errorf("owner panicked %d times, want once", got)
	}
}

// sourceSink keeps TestForwardSource's results on the heap, where a relayed
// answer's header puts them.
var sourceSink string

// TestForwardSource: a relayed answer's source is the owner's with the
// "forward:" prefix, and the four sources an owner names cost no
// allocation.
func TestForwardSource(t *testing.T) {
	for _, src := range []string{"cache", "store", "peer", "built", "other"} {
		if got := forwardSource(src); got != "forward:"+src {
			t.Errorf("forwardSource(%q) = %q", src, got)
		}
	}
	for _, src := range []string{"cache", "store", "peer", "built"} {
		src := strings.Clone(src) // the owner's value arrives in a buffer of its own
		if n := testing.AllocsPerRun(100, func() { sourceSink = forwardSource(src) }); n != 0 {
			t.Errorf("forwardSource(%q) allocates %.0f times, want 0", src, n)
		}
	}
}

// TestClusterRelayLogsOwnerSource: the entry node's request log line for a
// relayed request names the owner's latency class as forward:<source>, in
// either encoding.
func TestClusterRelayLogsOwnerSource(t *testing.T) {
	nodes := newNodeCluster(t, 3)
	var gr graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, binary := range []bool{false, true} {
		t.Run(encodingName(binary), func(t *testing.T) {
			seed := int64(80 + i)
			key := specKey(t, g, fp, "blobs:8", seed)
			entry := nonOwner(t, nodes, key)
			logbuf := &syncBuffer{}
			entry.srv.logger = obs.NewLogger(logbuf)
			t.Cleanup(func() { entry.srv.logger = nil })
			a := askShortcut(t, entry.url,
				map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": seed},
				wire.ShortcutRequest{Graph: fp, Partition: "blobs:8", Seed: seed}, binary, binary)
			if a.sourceHeader != "forward:built" {
				t.Errorf("X-Locshort-Source = %q, want forward:built", a.sourceHeader)
			}
			// The owner's own answer carries the header unprefixed.
			var owner *clusterNode
			for _, n := range nodes {
				if n.addr == a.servedBy {
					owner = n
				}
			}
			direct := askShortcut(t, owner.url,
				map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": seed},
				wire.ShortcutRequest{Graph: fp, Partition: "blobs:8", Seed: seed}, binary, binary)
			if direct.sourceHeader != "cache" {
				t.Errorf("owner's X-Locshort-Source = %q, want cache", direct.sourceHeader)
			}
			eventually(t, "request line with the relayed source", func() bool {
				for _, line := range strings.Split(logbuf.String(), "\n") {
					if strings.Contains(line, "shortcut="+key.String()) &&
						strings.Contains(line, "graph="+gr.Graph) &&
						strings.Contains(line, "source=forward:built") {
						return true
					}
				}
				return false
			})
		})
	}
}

// slowStore is a node's store that, while slow is set, takes 300 ms to
// look a shortcut up: an owner still working on a request.
type slowStore struct {
	service.Store
	slow *atomic.Bool
}

func (s slowStore) GetShortcut(key service.Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {

	if s.slow.Load() {
		time.Sleep(300 * time.Millisecond)
	}
	return s.Store.GetShortcut(key, g, parts)
}

// TestClusterRelayCallerGone: a relayed request whose caller gives up
// while the owner is still working gets its context's error. The entry
// node does not build it in the owner's place, and the owner stays in
// rotation: the next request for the key is relayed to it again.
func TestClusterRelayCallerGone(t *testing.T) {
	var slow [3]atomic.Bool
	nodes := newNodeCluster(t, 3, func(i int, cfg *service.Config, _ *jobs.Config) {
		cfg.Store = slowStore{Store: cfg.Store, slow: &slow[i]}
	})
	var gr graphResponse
	postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	key := specKey(t, g, fp, "blobs:8", 80)
	owner, _ := nodes[0].cl.Owner(key)
	entry := nonOwner(t, nodes, key)
	for i, n := range nodes {
		slow[i].Store(n.addr == owner)
	}

	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	req := shortcutRequest{Graph: gr.Graph, Partition: "blobs:8", Seed: 80}
	if _, rel, err := entry.srv.serveShortcut(ctx, req, ""); !errors.Is(err, context.DeadlineExceeded) || rel != nil {
		t.Fatalf("serveShortcut past the caller's deadline: relayed %v, err %v; want context.DeadlineExceeded", rel != nil, err)
	}
	if got := entry.eng.Stats().Builds; got != 0 {
		t.Fatalf("the entry node built %d shortcuts for a caller that had gone", got)
	}
	if !entry.cl.Available(owner) {
		t.Fatal("a caller giving up marked the owner down")
	}
	for i := range slow {
		slow[i].Store(false)
	}
	resp := postShortcut(t, entry.url, map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": 80}, false)
	if resp.ServedBy != owner || resp.Shortcut != key.String() {
		t.Fatalf("next request: key %s served by %q, want %s by the owner %q", resp.Shortcut, resp.ServedBy, key, owner)
	}
}

// TestClusterPeerBindsAfterReady: at a cluster's start, a node probes a
// peer that has not bound yet, flips ready, and the peer binds. The
// refused dial holds the peer down only for the first step of the
// doubling backoff, so within 500 ms the first node forwards the peer's
// keys to it and writes none of their records itself.
func TestClusterPeerBindsAfterReady(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	ln.Close()
	swap := &clusterSwap{}
	first := listenNode(t, "127.0.0.1:0", swap)
	addrs := []string{first.addr, lateAddr}
	swap.set(first.start(t, 0, addrs, nil))
	// main's config probe before the ready flip: the peer's port is closed.
	if _, reachable := first.cl.CheckConfig(t.Context()); reachable != 0 {
		t.Fatalf("%d peers reachable before the second node bound", reachable)
	}
	probed := time.Now()

	swap2 := &clusterSwap{}
	second := listenNode(t, lateAddr, swap2)
	swap2.set(second.start(t, 1, addrs, nil))
	for !first.cl.Available(lateAddr) {
		if time.Since(probed) > 500*time.Millisecond {
			t.Fatal("the peer is still held down 500 ms after the refused probe")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var gr graphResponse
	postJSON(t, first.url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
	fp, err := service.ParseFingerprint(gr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	forwarded := 0
	for seed := int64(1); forwarded < 3; seed++ {
		key := specKey(t, g, fp, "blobs:8", seed)
		if owner, _ := first.cl.Owner(key); owner != lateAddr {
			continue
		}
		resp := postShortcut(t, first.url, map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": seed}, false)
		if resp.ServedBy != lateAddr || resp.Shortcut != key.String() {
			t.Fatalf("key %s served by %q, want its owner %q", key, resp.ServedBy, lateAddr)
		}
		if first.st.HasShortcut(key) {
			t.Fatalf("the first node wrote a record of %s, which %s owns", key, lateAddr)
		}
		forwarded++
	}
	if b := first.eng.Stats().Builds; b != 0 {
		t.Fatalf("the first node built %d shortcuts its peer owns", b)
	}
}

// sendAndHangUp writes one JSON shortcut request to addr over a raw
// connection, waits until until reports the request is being worked on,
// and closes the connection without reading the answer.
func sendAndHangUp(t *testing.T, addr string, body map[string]any, until func() bool) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := fmt.Fprintf(nc, "POST /v1/shortcuts HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n%s", addr, len(b), b); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the request reached the engine", until)
}

// TestCallerGoneOverHTTP: a client that closes its connection while its
// request waits is gone for the daemon. Relayed, the entry node counts
// neither a forward nor a forward error, builds nothing and keeps the
// owner available; on one node, the waiter is released before the
// build ends, and the build still lands in the cache.
func TestCallerGoneOverHTTP(t *testing.T) {
	t.Run("relayed", func(t *testing.T) {
		var slow [3]atomic.Bool
		nodes := newNodeCluster(t, 3, func(i int, cfg *service.Config, _ *jobs.Config) {
			cfg.Store = slowStore{Store: cfg.Store, slow: &slow[i]}
		})
		var gr graphResponse
		postJSON(t, nodes[0].url+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
		fp, err := service.ParseFingerprint(gr.Graph)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := cli.ParseGraph("grid:12x12", 0)
		if err != nil {
			t.Fatal(err)
		}
		key := specKey(t, g, fp, "blobs:8", 81)
		owner, _ := nodes[0].cl.Owner(key)
		entry := nonOwner(t, nodes, key)
		var ownerNode *clusterNode
		for i, n := range nodes {
			slow[i].Store(n.addr == owner)
			if n.addr == owner {
				ownerNode = n
			}
		}
		body := map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": 81}
		sendAndHangUp(t, entry.addr, body, func() bool { return ownerNode.eng.Stats().CacheMisses > 0 })
		eventually(t, "the owner's build", func() bool { return ownerNode.eng.Stats().Builds == 1 })
		for i := range slow {
			slow[i].Store(false)
		}
		// A second request for the key is relayed: only it may count.
		if resp := postShortcut(t, entry.url, body, false); resp.ServedBy != owner {
			t.Fatalf("next request served by %q, want the owner %q", resp.ServedBy, owner)
		}
		if s := entry.cl.Stats(); s.Forwards != 1 || s.ForwardErrors != 0 {
			t.Fatalf("entry counted %d forwards and %d forward errors, want 1 (the second request) and 0",
				s.Forwards, s.ForwardErrors)
		}
		if b := entry.eng.Stats().Builds; b != 0 {
			t.Fatalf("the entry node built %d shortcuts for a caller that had gone", b)
		}
		if !entry.cl.Available(owner) {
			t.Fatal("a caller hanging up marked the owner down")
		}
	})
	t.Run("cold build", func(t *testing.T) {
		var slow atomic.Bool
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		eng := service.New(service.Config{Workers: 2, Store: slowStore{Store: st, slow: &slow}})
		srv, h := newServer(eng, jobs.Config{}, serverOptions{})
		srv.mgr.Start()
		returned := make(chan uint64, 1)
		ts := serveLoop(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/shortcuts" {
				returned <- eng.Stats().Builds
			}
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.mgr.Close()
			eng.Close()
			st.Close()
		})
		var gr graphResponse
		postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:12x12"}, http.StatusOK, &gr)
		slow.Store(true)
		body := map[string]any{"graph": gr.Graph, "partition": "blobs:8", "seed": 82}
		sendAndHangUp(t, ts.Listener.Addr().String(), body, func() bool { return eng.Stats().CacheMisses > 0 })
		select {
		case builds := <-returned:
			if builds != 0 {
				t.Fatal("the handler waited for the build its client had left")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the handler of a client that hung up never returned")
		}
		// A JSON miss's fill measures after it builds, so the entry is
		// resident only once the fill is done, not at the build.
		eventually(t, "the fill", func() bool {
			st := eng.Stats()
			return st.Builds == 1 && st.CachedEntries == 1
		})
		slow.Store(false)
		if resp := postShortcut(t, ts.URL, body, false); resp.Source != "cache" {
			t.Fatalf("after the fill: source %q, want cache", resp.Source)
		}
	})
}
