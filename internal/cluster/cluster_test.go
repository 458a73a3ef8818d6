package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// swapHandler lets a test bind httptest servers (to learn their addresses)
// before the clusters that serve on them exist.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testNode struct {
	addr string
	st   *store.Store
	cl   *Cluster
	srv  *httptest.Server
	sw   *swapHandler
}

// newTestCluster brings up n peer-API-only nodes (stores + Cluster +
// Handler, no engines) on loopback listeners sharing one membership.
func newTestCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{addr: strings.TrimPrefix(srv.URL, "http://"), srv: srv, sw: sw}
		addrs[i] = nodes[i].addr
	}
	for i, node := range nodes {
		st, err := store.Open(filepath.Join(t.TempDir(), "data"), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cl, err := New(Config{
			Self:         node.addr,
			Nodes:        addrs,
			VNodes:       16,
			SyncInterval: time.Hour, // tests drive SyncNow explicitly
			FetchTimeout: 5 * time.Second,
			DownBackoff:  50 * time.Millisecond,
			Store:        st,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].st, nodes[i].cl = st, cl
		node.sw.set(cl.Handler())
	}
	return nodes
}

// clusterFixture builds one (graph, partition, shortcut) triple and returns
// it with its content-addressed identities.
func clusterFixture(t *testing.T, spec, partSpec string, seed int64) (
	*graph.Graph, *partition.Partition, *shortcut.Result, service.Fingerprint, service.Fingerprint) {
	t.Helper()
	g, _, err := cli.ParseGraph(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.ParsePartition(g, partSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(g, p, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gfp := service.FingerprintGraph(g)
	key := service.ShortcutKey(gfp, p, shortcut.Options{})
	return g, p, res, gfp, key
}

// seedRecord persists the fixture into one node's store.
func seedRecord(t *testing.T, node *testNode, g *graph.Graph, p *partition.Partition,
	res *shortcut.Result, gfp, key service.Fingerprint) {
	t.Helper()
	if err := node.st.PutGraph(gfp, g); err != nil {
		t.Fatal(err)
	}
	if err := node.st.PutShortcut(key, gfp, p, shortcut.Options{}, res, 123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestFetchShortcutFromPeer(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 1)
	seedRecord(t, nodes[0], g, p, res, gfp, key)

	fetched, bt, ok, err := nodes[1].cl.FetchShortcut(context.Background(), key, g, p)
	if err != nil || !ok {
		t.Fatalf("FetchShortcut: ok=%v err=%v", ok, err)
	}
	if fetched == nil || len(fetched.Shortcut.H) != len(res.Shortcut.H) {
		t.Fatalf("fetched shortcut shape mismatch")
	}
	if bt != 123*time.Millisecond {
		t.Fatalf("build time not preserved: %v", bt)
	}
	// The fetch imported the record: node 1 now serves it from its own
	// store (and can answer peers for it) without another fetch.
	if !nodes[1].st.HasShortcut(key) {
		t.Fatal("fetched record was not imported into the local store")
	}
	if !nodes[1].st.GraphKnown(gfp) {
		t.Fatal("fetched record's graph was not imported")
	}
}

func TestFetchShortcutCleanMiss(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, p, _, _, key := clusterFixture(t, "grid:6x6", "blobs:3", 2)

	_, _, ok, err := nodes[0].cl.FetchShortcut(context.Background(), key, g, p)
	if ok {
		t.Fatal("fetch reported a hit for a record nobody holds")
	}
	if err != nil {
		t.Fatalf("clean miss must not be an error: %v", err)
	}
}

func TestFetchShortcutRejectsTamperedRecord(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 3)
	seedRecord(t, nodes[0], g, p, res, gfp, key)

	// Byzantine node 0: serve the real record with one payload byte
	// flipped. Verification on the fetching side must reject it.
	inner := nodes[0].cl.Handler()
	nodes[0].sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/peer/records/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var wire Record
		if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil || len(wire.ShortcutPayload) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		wire.ShortcutPayload[len(wire.ShortcutPayload)/2] ^= 0x01
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire)
	}))

	_, _, ok, err := nodes[1].cl.FetchShortcut(context.Background(), key, g, p)
	if ok {
		t.Fatal("tampered record was accepted")
	}
	if err == nil {
		t.Fatal("tampered record must surface as an error, not a clean miss")
	}
	if nodes[1].st.HasShortcut(key) {
		t.Fatal("tampered record was imported")
	}
}

// TestFetchShortcutKeyOnly fetches without a request partition, the way
// the engine asks for a key the daemon memoized: the record is decoded
// with its own partition payload, canonical-identical to the stored
// record, and a partition payload that no longer hashes to the
// fingerprint the shortcut names is rejected, not imported.
func TestFetchShortcutKeyOnly(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:5", 5)
	seedRecord(t, nodes[0], g, p, res, gfp, key)

	fetched, bt, ok, err := nodes[1].cl.FetchShortcut(context.Background(), key, g, nil)
	if err != nil || !ok {
		t.Fatalf("key-only FetchShortcut: ok=%v err=%v", ok, err)
	}
	want, ok, err := nodes[0].st.ShortcutPayload(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutPayload: ok=%v err=%v", ok, err)
	}
	got := store.EncodeShortcutRecordPayload(gfp, fetched.Shortcut.Parts, shortcut.Options{}, fetched, bt)
	if !bytes.Equal(got, want) {
		t.Fatal("key-only fetch is not canonical-identical to the stored record")
	}

	tampered := newTestCluster(t, 2)
	seedRecord(t, tampered[0], g, p, res, gfp, key)
	inner := tampered[0].cl.Handler()
	tampered[0].sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/peer/records/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var wire Record
		if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil || len(wire.PartitionPayload) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		wire.PartitionPayload[len(wire.PartitionPayload)-1] ^= 0x01
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire)
	}))
	if _, _, ok, err := tampered[1].cl.FetchShortcut(context.Background(), key, g, nil); ok || err == nil {
		t.Fatalf("key-only fetch of a tampered partition payload: ok=%v err=%v", ok, err)
	}
	if tampered[1].st.HasShortcut(key) {
		t.Fatal("record with a tampered partition payload was imported")
	}
}

func TestFetchShortcutSurvivesDeadPeer(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 4)
	// Both non-fetching nodes hold the record; kill one of them.
	seedRecord(t, nodes[0], g, p, res, gfp, key)
	seedRecord(t, nodes[1], g, p, res, gfp, key)
	nodes[0].srv.Close()

	for i := 0; i < 3; i++ {
		_, _, ok, err := nodes[2].cl.FetchShortcut(context.Background(), key, g, p)
		if !ok || err != nil {
			t.Fatalf("fetch %d with one dead holder: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestSyncPullsOwnedRecords(t *testing.T) {
	nodes := newTestCluster(t, 3)
	byAddr := make(map[string]*testNode)
	for _, n := range nodes {
		byAddr[n.addr] = n
	}
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 5)

	// Seed the record on exactly one node (wherever it lands is fine:
	// sync pulls from any holder, the filter is ShouldOwn on the puller).
	seedRecord(t, nodes[0], g, p, res, gfp, key)

	for _, n := range nodes {
		sr := n.cl.SyncNow(context.Background())
		if sr.Reachable != 2 {
			t.Fatalf("node %s: reachable=%d, want 2", n.addr, sr.Reachable)
		}
		if sr.Drift {
			t.Fatalf("node %s: unexpected drift", n.addr)
		}
		if sr.Errors != 0 {
			t.Fatalf("node %s: sync errors: %d", n.addr, sr.Errors)
		}
	}

	// Every replica holds the shortcut now; every node holds the graph
	// (graphs replicate everywhere).
	for _, owner := range nodes[0].cl.Replicas(key) {
		if !byAddr[owner].st.HasShortcut(key) {
			t.Fatalf("replica %s is missing the record after sync", owner)
		}
	}
	for _, n := range nodes {
		if !n.st.GraphKnown(gfp) {
			t.Fatalf("node %s is missing the graph after sync", n.addr)
		}
	}
	// Non-replicas must NOT have pulled the shortcut.
	replicas := make(map[string]bool)
	for _, owner := range nodes[0].cl.Replicas(key) {
		replicas[owner] = true
	}
	for _, n := range nodes {
		if n == nodes[0] || replicas[n.addr] {
			continue
		}
		if n.st.HasShortcut(key) {
			t.Fatalf("non-replica %s pulled the record", n.addr)
		}
	}
}

func TestSyncDetectsConfigDrift(t *testing.T) {
	nodes := newTestCluster(t, 3)
	// Rebuild node 0's cluster with a different vnode count on the same
	// address and store: config drift.
	drifted, err := New(Config{
		Self:         nodes[0].addr,
		Nodes:        []string{nodes[0].addr, nodes[1].addr, nodes[2].addr},
		VNodes:       8,
		SyncInterval: time.Hour,
		Store:        nodes[0].st,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].sw.set(drifted.Handler())

	sr := nodes[1].cl.SyncNow(context.Background())
	if !sr.Drift {
		t.Fatal("sync did not detect the vnode-count drift")
	}
	if !nodes[1].cl.Drift() {
		t.Fatal("Drift() not latched after drifted round")
	}
	if d, _ := nodes[2].cl.CheckConfig(context.Background()); !d {
		t.Fatal("CheckConfig did not detect the drift")
	}

	// Heal the config: drift clears on the next round.
	nodes[0].sw.set(nodes[0].cl.Handler())
	if sr := nodes[1].cl.SyncNow(context.Background()); sr.Drift {
		t.Fatal("drift did not clear after configs converged")
	}
	if nodes[1].cl.Drift() {
		t.Fatal("Drift() still latched after clean round")
	}
}

func TestSyncUnreachablePeerIsNotDrift(t *testing.T) {
	nodes := newTestCluster(t, 3)
	nodes[0].srv.Close()
	sr := nodes[1].cl.SyncNow(context.Background())
	if sr.Drift {
		t.Fatal("an unreachable peer must not count as config drift")
	}
	if sr.Reachable != 1 {
		t.Fatalf("reachable=%d, want 1", sr.Reachable)
	}
}

func TestBroadcastGraph(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _, _, gfp, _ := clusterFixture(t, "grid:6x6", "blobs:3", 6)
	if err := nodes[0].st.PutGraph(gfp, g); err != nil {
		t.Fatal(err)
	}
	payload, ok, err := nodes[0].st.GraphPayload(gfp)
	if err != nil || !ok {
		t.Fatalf("graph payload: ok=%v err=%v", ok, err)
	}
	nodes[0].cl.BroadcastGraph(context.Background(), gfp, payload)
	for _, n := range nodes[1:] {
		if !n.st.GraphKnown(gfp) {
			t.Fatalf("node %s did not receive the graph broadcast", n.addr)
		}
	}
	if s := nodes[0].cl.Stats(); s.GraphPushes != 2 || s.GraphPushErrors != 0 {
		t.Fatalf("push counters: %+v", s)
	}
}

func TestGraphPutRejectsWrongFingerprint(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, _, _, gfp, _ := clusterFixture(t, "grid:6x6", "blobs:3", 7)
	if err := nodes[0].st.PutGraph(gfp, g); err != nil {
		t.Fatal(err)
	}
	payload, _, err := nodes[0].st.GraphPayload(gfp)
	if err != nil {
		t.Fatal(err)
	}
	// Push the real payload under a lying fingerprint: must be rejected.
	bogus := service.Fingerprint(gfp ^ 1)
	if err := nodes[0].cl.PushGraph(context.Background(), nodes[1].addr, bogus, payload); err == nil {
		t.Fatal("peer accepted a graph under the wrong fingerprint")
	}
	if nodes[1].st.GraphKnown(bogus) || nodes[1].st.GraphKnown(gfp) {
		t.Fatal("rejected push still left a record behind")
	}
}

func TestForwardRequestTransportError(t *testing.T) {
	nodes := newTestCluster(t, 2)
	nodes[1].srv.Close()
	_, _, _, err := nodes[0].cl.Forward(context.Background(), nodes[1].addr, "/v1/shortcuts", []byte(`{}`), "")
	if err == nil {
		t.Fatal("forward to a dead node must error")
	}
	if s := nodes[0].cl.Stats(); s.ForwardErrors != 1 {
		t.Fatalf("forward error not counted: %+v", s)
	}
	// The dead node is now in down backoff: peer fetches skip it.
	if nodes[0].cl.available(nodes[1].addr) {
		t.Fatal("dead node not marked down")
	}
	time.Sleep(60 * time.Millisecond)
	if !nodes[0].cl.available(nodes[1].addr) {
		t.Fatal("down mark did not expire after the backoff window")
	}
}

func TestRingInfoEndpoint(t *testing.T) {
	nodes := newTestCluster(t, 3)
	info, err := nodes[0].cl.RingInfoOf(context.Background(), nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	if info.Self != nodes[1].addr {
		t.Fatalf("self=%q, want %q", info.Self, nodes[1].addr)
	}
	if len(info.Nodes) != 3 || info.VNodes != 16 || info.Replication != 2 {
		t.Fatalf("ring info: %+v", info)
	}
	want := strconv.FormatUint(nodes[0].cl.ConfigHash(), 16)
	if info.ConfigHash != want {
		t.Fatalf("config hash %q != local %q (configs agree)", info.ConfigHash, want)
	}
}

func TestConfigHashCoversReplication(t *testing.T) {
	nodes := newTestCluster(t, 3)
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	other, err := New(Config{
		Self: nodes[0].addr, Nodes: addrs, VNodes: 16, Replication: 3,
		SyncInterval: time.Hour, Store: nodes[0].st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.ConfigHash() == nodes[0].cl.ConfigHash() {
		t.Fatal("replication factor does not affect the config hash")
	}
}

func TestNewValidation(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := New(Config{Self: "a:1", Nodes: []string{"a:1"}, Store: nil}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(Config{Self: "c:3", Nodes: []string{"a:1", "b:2"}, Store: st}); err == nil {
		t.Fatal("self outside membership accepted")
	}
	if _, err := New(Config{Self: "", Nodes: []string{"a:1"}, Store: st}); err == nil {
		t.Fatal("empty self accepted")
	}
}

func TestStartStop(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 8)
	seedRecord(t, nodes[0], g, p, res, gfp, key)
	nodes[1].cl.Start()
	// Start runs one round immediately; wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].cl.Stats().SyncRounds == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	nodes[1].cl.Stop()
	nodes[1].cl.Stop() // idempotent
	if nodes[1].cl.Stats().SyncRounds == 0 {
		t.Fatal("background loop never ran a round")
	}
}
