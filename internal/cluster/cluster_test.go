package cluster

import (
	"bytes"
	"context"
	"errors"
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
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
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

// byzantine makes node serve its records and graph payloads with one byte
// flipped: the middle byte of the record payload pick selects, re-framed
// with store.AppendPeerRecord, and of every graph payload when flipGraphs
// is set. A record frame the node cannot parse is answered 500, so a test
// that expects a verification error fails if the tampered frame never
// reaches the verifier. Every other call is served as usual.
func byzantine(node *testNode, pick func(*store.PeerRecord) []byte, flipGraphs bool) {
	inner := node.cl.Handler()
	node.sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		records := pick != nil && strings.HasPrefix(r.URL.Path, "/v1/peer/records/")
		graphs := flipGraphs && r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/graphs/")
		if !records && !graphs {
			inner.ServeHTTP(w, r)
			return
		}
		rr := httptest.NewRecorder()
		inner.ServeHTTP(rr, r)
		body := rr.Body.Bytes()
		if records {
			rec, err := store.DecodePeerRecord(body)
			if err != nil {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			p := pick(&rec)
			p[len(p)/2] ^= 0x01
			body = store.AppendPeerRecord(nil, rec)
		} else {
			body[len(body)/2] ^= 0x01
		}
		w.Header().Set("Content-Type", rr.Header().Get("Content-Type"))
		w.WriteHeader(rr.Code)
		w.Write(body)
	}))
}

// wantVerificationError fails t unless err is FetchShortcut's verification
// error, not a transport or status error.
func wantVerificationError(t *testing.T, ok bool, err error) {
	t.Helper()
	if ok || err == nil || !strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("fetch of a tampered record: ok=%v err=%v, want a failed verification", ok, err)
	}
}

func TestFetchShortcutRejectsTamperedRecord(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 3)
	seedRecord(t, nodes[0], g, p, res, gfp, key)

	// Byzantine node 0: serve the real record with one byte of the
	// shortcut payload flipped. Verification on the fetching side must
	// reject it. The middle byte lies in an edge list, and the flip names
	// a non-tree edge; the key does not cover the edge lists, so a flip
	// that still named tree edges only would pass. Of a one-byte pick the
	// flip hits the version byte, 2 to 3: a peer on another payload
	// version is refused by it, given the partition or not.
	for _, c := range []struct {
		name  string
		pick  func(*store.PeerRecord) []byte
		parts []*partition.Partition
	}{
		{"edge list", func(rec *store.PeerRecord) []byte { return rec.ShortcutPayload }, []*partition.Partition{p}},
		{"version byte", func(rec *store.PeerRecord) []byte { return rec.ShortcutPayload[:1] }, []*partition.Partition{p, nil}},
	} {
		byzantine(nodes[0], c.pick, false)
		for _, parts := range c.parts {
			_, _, ok, err := nodes[1].cl.FetchShortcut(context.Background(), key, g, parts)
			wantVerificationError(t, ok, err)
			if c.name == "version byte" && !strings.Contains(err.Error(), "bad version") {
				t.Errorf("%s (partition given: %v): refused for %v, want its version", c.name, parts != nil, err)
			}
			if nodes[1].st.HasShortcut(key) {
				t.Fatalf("%s: tampered record was imported", c.name)
			}
		}
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
	got, err := store.EncodeShortcutRecordPayload(gfp, fetched.Shortcut.Parts, shortcut.Options{}, fetched, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("key-only fetch is not canonical-identical to the stored record")
	}

	tampered := newTestCluster(t, 2)
	seedRecord(t, tampered[0], g, p, res, gfp, key)
	byzantine(tampered[0], func(rec *store.PeerRecord) []byte { return rec.PartitionPayload }, false)
	_, _, ok, err = tampered[1].cl.FetchShortcut(context.Background(), key, g, nil)
	wantVerificationError(t, ok, err)
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

// TestSyncRefusesTamperedPayloads: an anti-entropy round against a peer
// that flips one byte of every graph payload and shortcut record it serves
// counts both pulls as errors, pulls nothing, and leaves neither record in
// the puller's store. The log shows that both payloads reached the
// verifier.
func TestSyncRefusesTamperedPayloads(t *testing.T) {
	nodes := newTestCluster(t, 2) // replication 2: node 1 replicates every key
	g, p, res, gfp, key := clusterFixture(t, "grid:8x8", "blobs:4", 3)
	seedRecord(t, nodes[0], g, p, res, gfp, key)
	byzantine(nodes[0], func(rec *store.PeerRecord) []byte { return rec.ShortcutPayload }, true)
	var logbuf bytes.Buffer
	nodes[1].cl.log = obs.NewLogger(&logbuf)

	sr := nodes[1].cl.SyncNow(context.Background())
	if sr.Reachable != 1 || sr.Drift {
		t.Fatalf("sync round: %+v, want one reachable peer and no drift", sr)
	}
	if sr.Errors != 2 || sr.PulledGraphs != 0 || sr.PulledShortcuts != 0 {
		t.Fatalf("sync round: %+v, want 2 errors and nothing pulled", sr)
	}
	if s := nodes[1].cl.Stats(); s.SyncErrors != 2 || s.SyncPulls != 0 {
		t.Fatalf("sync counters: %+v", s)
	}
	if nodes[1].st.GraphKnown(gfp) || nodes[1].st.HasShortcut(key) {
		t.Fatal("a tampered payload was stored")
	}
	for _, msg := range []string{"msg=cluster_sync_graph_rejected", "msg=cluster_sync_record_rejected"} {
		if !strings.Contains(logbuf.String(), msg) {
			t.Errorf("no %s line; log:\n%s", msg, logbuf.String())
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

// TestGraphPutOverLimit: a peer graph PUT declared longer than the longest
// legal graph payload gets 413 before its body is read, and one whose body
// is not in the binary form gets 415; neither registers anything. The same
// payload within the limit registers. A body of undeclared length is cut
// off once it passes the limit.
func TestGraphPutOverLimit(t *testing.T) {
	nodes := newTestCluster(t, 1)
	h := nodes[0].cl.Handler()
	g, _, _, gfp, _ := clusterFixture(t, "grid:6x6", "blobs:3", 8)
	payload := store.EncodeGraphPayload(g)
	put := func(ctype string, declared int64) int {
		req := httptest.NewRequest(http.MethodPut, "/v1/peer/graphs/"+gfp.String(), bytes.NewReader(payload))
		req.Header.Set("Content-Type", ctype)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, tc := range []struct {
		ctype    string
		declared int64
		want     int
	}{
		{wire.ContentType, maxGraphPayload + 1, http.StatusRequestEntityTooLarge},
		{"application/json", int64(len(payload)), http.StatusUnsupportedMediaType},
		{"", int64(len(payload)), http.StatusUnsupportedMediaType},
	} {
		if code := put(tc.ctype, tc.declared); code != tc.want {
			t.Errorf("%q PUT declaring %d bytes: %d, want %d", tc.ctype, tc.declared, code, tc.want)
		}
		if nodes[0].st.GraphKnown(gfp) {
			t.Fatalf("refused %q PUT registered the graph", tc.ctype)
		}
	}
	if code := put(wire.ContentType, int64(len(payload))); code != http.StatusOK {
		t.Fatalf("PUT of a legal payload: %d, want 200", code)
	}
	if !nodes[0].st.GraphKnown(gfp) {
		t.Error("the legal PUT did not register the graph")
	}

	for limit, want := range map[int64]bool{8: false, 9: true} {
		req := httptest.NewRequest(http.MethodPut, "/", strings.NewReader("123456789"))
		req.ContentLength = -1
		b, err := readLimited(httptest.NewRecorder(), req, limit)
		var tooLarge *http.MaxBytesError
		if ok := err == nil && len(b) == 9; ok != want || !want && !errors.As(err, &tooLarge) {
			t.Errorf("9 undeclared bytes at limit %d: %d bytes, err %v", limit, len(b), err)
		}
	}
}

// TestPeerAnswersBinaryOnly: record and graph GETs answer the binary form
// whatever Accept asks for, and a peer that answers them in another form
// is a fetch error, not a fallback.
func TestPeerAnswersBinaryOnly(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, p, res, gfp, key := clusterFixture(t, "grid:6x6", "blobs:3", 9)
	seedRecord(t, nodes[0], g, p, res, gfp, key)
	rec, ok, err := nodes[0].st.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
	}
	payload, ok, err := nodes[0].st.GraphPayload(gfp)
	if err != nil || !ok {
		t.Fatalf("GraphPayload: ok=%v err=%v", ok, err)
	}
	h := nodes[0].cl.Handler()
	for _, tc := range []struct {
		path string
		want []byte
	}{
		{"/v1/peer/records/" + key.String(), store.AppendPeerRecord(nil, rec)},
		{"/v1/peer/graphs/" + gfp.String(), payload},
	} {
		for _, accept := range []string{"", "application/json", "*/*", wire.ContentType} {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if ct := rr.Header().Get("Content-Type"); rr.Code != http.StatusOK || ct != wire.ContentType ||
				!bytes.Equal(rr.Body.Bytes(), tc.want) {
				t.Errorf("GET %s, Accept %q: %d %q, %d bytes; want the %d-byte binary answer",
					tc.path, accept, rr.Code, ct, rr.Body.Len(), len(tc.want))
			}
		}
	}

	// Node 0 answers in JSON, as nodes from before the binary peer API
	// could: both fetches fail, and nothing is registered or imported.
	nodes[0].sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}))
	_, _, ok, err = nodes[1].cl.FetchShortcut(context.Background(), key, g, p)
	if ok || err == nil || !strings.Contains(err.Error(), "not "+wire.ContentType) {
		t.Errorf("record fetch from a JSON peer: ok=%v err=%v, want a form error", ok, err)
	}
	if _, ok, err := nodes[1].cl.graphPayloadOf(context.Background(), nodes[0].addr, gfp); ok || err == nil {
		t.Errorf("graph fetch from a JSON peer: ok=%v err=%v, want an error", ok, err)
	}
	if nodes[1].st.HasShortcut(key) || nodes[1].st.GraphKnown(gfp) {
		t.Error("a JSON answer left a record behind")
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
