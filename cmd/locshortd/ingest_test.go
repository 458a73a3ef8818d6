package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// ingestBinary posts a graph payload and returns the fingerprint the
// daemon answers.
func ingestBinary(t *testing.T, url string, payload []byte) string {
	t.Helper()
	resp := doBinary(t, http.MethodPost, url+"/v1/graphs", payload, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary POST /v1/graphs: status %d", resp.StatusCode)
	}
	return resp.Header.Get(wire.HeaderGraph)
}

// shuffledEdges lists g's edges in a random order, each in a random
// orientation, as a JSON ingest body's edge list.
func shuffledEdges(g *graph.Graph, rng *rand.Rand) [][]float64 {
	es := g.Edges()
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	out := make([][]float64, len(es))
	for i, e := range es {
		u, v := e.U, e.V
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		out[i] = []float64{float64(u), float64(v), e.W}
	}
	return out
}

// servedRecord requests blobs:4 at seed on graph fp from the daemon at
// url, whose engine is eng, and returns the answered key and the entry's
// record payload, encoded with a zero build time so that independent
// builds compare byte for byte.
func servedRecord(t *testing.T, eng *service.Engine, url, fp string, seed int64, forwarded bool) (string, []byte) {
	t.Helper()
	resp := postShortcut(t, url, map[string]any{"graph": fp, "partition": "blobs:4", "seed": seed}, forwarded)
	key, err := service.ParseFingerprint(resp.Shortcut)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := eng.Shortcut(key)
	if !ok {
		t.Fatalf("shortcut %s not resident right after it was served", key)
	}
	payload, err := store.EncodeShortcutRecordPayload(c.GraphFP, c.Parts, shortcut.Options{}, c.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Shortcut, payload
}

// TestIngestPathsGiveIdenticalRecords is the one-representative table:
// over the nine cli families at four seeds each, a graph that arrives as a
// JSON spec, as JSON edges in shuffled order and orientation, as a binary
// payload, as a peer push, or from the store after a restart yields the
// same fingerprint, the same shortcut key and the same record bytes.
func TestIngestPathsGiveIdenticalRecords(t *testing.T) {
	type graphCase struct {
		spec string
		seed int64
	}
	var cases []graphCase
	for _, spec := range []string{
		"grid:6x7", "torus:6x6", "wheel:20", "cycle:12", "path:17",
		"complete:8", "ktree:40,3", "random:50,120", "lb:5,12",
	} {
		for seed := int64(0); seed < 4; seed++ {
			cases = append(cases, graphCase{spec, seed})
		}
	}
	parse := func(c graphCase) *graph.Graph {
		g, _, err := cli.ParseGraph(c.spec, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ingestSpec := func(url string, c graphCase) string {
		var gr graphResponse
		postJSON(t, url+"/v1/graphs", map[string]any{"spec": c.spec, "seed": c.seed}, http.StatusOK, &gr)
		return gr.Graph
	}
	type served struct{ fp, key string }
	type record struct {
		served
		payload []byte
	}
	// collect serves every case from one daemon whose graphs all arrived
	// one way: ingestCase registers case i and returns its fingerprint.
	collect := func(eng *service.Engine, url string, forwarded bool, ingestCase func(i int, c graphCase) string) []record {
		out := make([]record, len(cases))
		for i, c := range cases {
			fp := ingestCase(i, c)
			key, payload := servedRecord(t, eng, url, fp, c.seed, forwarded)
			out[i] = record{served{fp, key}, payload}
		}
		return out
	}
	paths := map[string][]record{}

	ts, srv := newTestServer(t, service.Config{Workers: 2}, jobs.Config{})
	paths["json spec"] = collect(srv.eng, ts.URL, false, func(_ int, c graphCase) string {
		return ingestSpec(ts.URL, c)
	})

	rng := rand.New(rand.NewSource(1))
	ts, srv = newTestServer(t, service.Config{Workers: 2}, jobs.Config{})
	paths["json shuffled edges"] = collect(srv.eng, ts.URL, false, func(_ int, c graphCase) string {
		g := parse(c)
		var gr graphResponse
		postJSON(t, ts.URL+"/v1/graphs", map[string]any{"nodes": g.NumNodes(), "edges": shuffledEdges(g, rng)}, http.StatusOK, &gr)
		return gr.Graph
	})

	ts, srv = newTestServer(t, service.Config{Workers: 2}, jobs.Config{})
	paths["binary payload"] = collect(srv.eng, ts.URL, false, func(_ int, c graphCase) string {
		return ingestBinary(t, ts.URL, store.EncodeGraphPayload(parse(c)))
	})

	// Peer push: a spec ingested on node 0 reaches node 1 as the
	// broadcast payload, and node 1 builds with what it decoded.
	nodes := newNodeCluster(t, 2)
	paths["peer push"] = collect(nodes[1].eng, nodes[1].url, true, func(_ int, c graphCase) string {
		return ingestSpec(nodes[0].url, c)
	})

	// Warm restart: the representatives decoded from the graph records
	// an earlier process stored.
	dir := filepath.Join(t.TempDir(), "data")
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(cases))
	for i, c := range cases {
		fp := service.FingerprintGraph(parse(c))
		if err := st.PutGraph(fp, parse(c)); err != nil {
			t.Fatal(err)
		}
		fps[i] = fp.String()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts, srv = newTestServer(t, service.Config{Workers: 2, Store: st}, jobs.Config{})
	if _, err := srv.eng.WarmStart(); err != nil {
		t.Fatal(err)
	}
	paths["warm restart"] = collect(srv.eng, ts.URL, false, func(i int, _ graphCase) string { return fps[i] })

	want := paths["json spec"]
	for name, got := range paths {
		for i, c := range cases {
			if got[i].served != want[i].served {
				t.Errorf("%s seed %d via %s: graph %s key %s, the json spec gives %s and %s",
					c.spec, c.seed, name, got[i].fp, got[i].key, want[i].fp, want[i].key)
			} else if !bytes.Equal(got[i].payload, want[i].payload) {
				t.Errorf("%s seed %d via %s: record bytes differ from the json spec's under key %s",
					c.spec, c.seed, name, got[i].key)
			}
		}
	}
}

// TestGraphFingerprintOneWeightedMultiset: the order of tied edges and the
// sign of a zero weight do not change a graph's identity. JSON ingest
// stores −0 as +0, so the four edge lists below register one graph; a
// binary payload carrying −0, which would be a second content address for
// it, is refused with 422.
func TestGraphFingerprintOneWeightedMultiset(t *testing.T) {
	ts, srv := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	var fps []string
	for _, edges := range []string{
		`[[0,1,0],[0,1,-0],[1,2,1]]`,
		`[[0,1,-0],[0,1,0],[1,2,1]]`,
		`[[1,0,-0],[2,1,1],[0,1,-0]]`,
		`[[0,1,0],[0,1,0],[1,2,1]]`,
	} {
		var gr graphResponse
		postJSON(t, ts.URL+"/v1/graphs", json.RawMessage(`{"nodes":3,"edges":`+edges+`}`), http.StatusOK, &gr)
		fps = append(fps, gr.Graph)
	}
	for i, fp := range fps {
		if fp != fps[0] {
			t.Errorf("edge list %d registered %s, edge list 0 %s", i, fp, fps[0])
		}
	}
	if n := len(srv.eng.Graphs()); n != 1 {
		t.Fatalf("%d graphs registered, want 1", n)
	}
	fp, err := service.ParseFingerprint(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	g, _ := srv.eng.Graph(fp)
	for _, e := range g.EdgeSlice() {
		if math.Signbit(e.W) {
			t.Fatalf("representative keeps a -0 weight: %v", g.EdgeSlice())
		}
	}

	// The same graph's payload with its first weight's sign bit set.
	payload := store.EncodeGraphPayload(g)
	w := 1 + 16 + 16
	payload[w] |= 0x80
	if bits := binary.BigEndian.Uint64(payload[w:]); bits != 1<<63 {
		t.Fatalf("first weight bits %#x, want -0", bits)
	}
	resp := doBinary(t, http.MethodPost, ts.URL+"/v1/graphs", payload, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("binary payload with a -0 weight: status %d, want 422", resp.StatusCode)
	}
}

// TestClusterTorusOwnerDownRecordsAgree: with the key's owner down, the
// node a torus spec was ingested on builds the shortcut itself, and every
// live node then serves the record a node that received the graph as a
// payload would build, under the key a client computes.
func TestClusterTorusOwnerDownRecordsAgree(t *testing.T) {
	nodes := newNodeCluster(t, 3)
	const spec, seed = "blobs:8", 6
	g, _, err := cli.ParseGraph("torus:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := service.FingerprintGraph(g)
	key := specKey(t, g, fp, spec, seed)
	entry := nonOwner(t, nodes, key)
	var gr graphResponse
	postJSON(t, entry.url+"/v1/graphs", map[string]any{"spec": "torus:12x12"}, http.StatusOK, &gr)
	owner, _ := nodes[0].cl.Owner(key)
	var live []*clusterNode
	for _, n := range nodes {
		if n.addr == owner {
			n.ts.Close()
		} else {
			live = append(live, n)
		}
	}
	build := map[string]any{"graph": gr.Graph, "partition": spec, "seed": seed}
	if first := postShortcut(t, entry.url, build, false); first.Source != "built" || first.Shortcut != key.String() {
		t.Fatalf("with the owner down: source %q key %s, want a local build of %s", first.Source, first.Shortcut, key)
	}

	// What a node that received the graph as a payload builds.
	pg, err := store.DecodeGraphPayload(store.EncodeGraphPayload(g), fp)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cli.ParsePartition(pg, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(pg, parts, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.EncodeShortcutRecordPayload(fp, parts, shortcut.Options{}, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	var served [][]byte
	for _, n := range live {
		resp := doBinary(t, http.MethodPost, n.url+"/v1/shortcuts",
			wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: spec, Seed: seed}), nil)
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(wire.HeaderKey) != key.String() {
			t.Fatalf("%s: status %d key %q, want 200 and %s", n.addr, resp.StatusCode, resp.Header.Get(wire.HeaderKey), key)
		}
		got, bt, err := store.DecodeShortcutPayload(body.Bytes(), key, pg, parts)
		if err != nil {
			t.Fatalf("%s: served record does not decode on the payload's graph: %v", n.addr, err)
		}
		norm, err := store.EncodeShortcutRecordPayload(fp, parts, shortcut.Options{}, got, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(norm, want) {
			t.Errorf("%s: served record (build time %v) differs from the payload graph's build", n.addr, bt)
		}
		served = append(served, body.Bytes())
	}
	if !bytes.Equal(served[0], served[1]) {
		t.Error("the live nodes serve different bytes under one key")
	}
}
