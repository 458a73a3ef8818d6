package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"slices"
	"strconv"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// shortcutResponse is the JSON shortcut answer as encoding/json sees it:
// tests decode answers into it, and appendShortcutJSON must render what
// encoding/json renders for it.
type shortcutResponse struct {
	Shortcut     string  `json:"shortcut"`
	Graph        string  `json:"graph"`
	Cached       bool    `json:"cached"`
	Source       string  `json:"source"`
	ServedBy     string  `json:"served_by,omitempty"`
	BuildMillis  float64 `json:"build_ms"`
	Delta        int     `json:"delta"`
	Congestion   int     `json:"congestion"`
	Dilation     int     `json:"dilation"`
	MaxBlocks    int     `json:"max_blocks"`
	CoveredParts int     `json:"covered_parts"`
}

// serveRecorded runs one /v1/shortcuts request through h into a recorder,
// whose header map is exactly what the handler set: no Date, no
// Content-Length filled in by net/http.
func serveRecorded(t *testing.T, h http.Handler, frame wire.ShortcutRequest, binary, forwarded bool) *httptest.ResponseRecorder {
	t.Helper()
	var body []byte
	if binary {
		body = wire.AppendShortcutRequest(nil, frame)
	} else {
		var err error
		if body, err = json.Marshal(shortcutRequest{Graph: frame.Graph.String(),
			Partition: frame.Partition, Seed: frame.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/shortcuts", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	}
	if forwarded {
		req.Header.Set(cluster.ForwardedHeader, "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/shortcuts: status %d: %s", rec.Code, rec.Body)
	}
	return rec
}

// checkAnswerHeaders fails unless hdr has exactly the names in want, one
// value each, equal to want's, and every name is in canonical form.
func checkAnswerHeaders(t *testing.T, hdr http.Header, want map[string]string) {
	t.Helper()
	var got []string
	for name, vals := range hdr {
		got = append(got, name)
		if c := textproto.CanonicalMIMEHeaderKey(name); c != name {
			t.Errorf("header %q is not canonical (%q)", name, c)
		}
		if len(vals) != 1 || vals[0] != want[name] {
			t.Errorf("header %s = %q, want [%q]", name, vals, want[name])
		}
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(got)
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Errorf("answer headers %v, want exactly %v", got, names)
	}
}

// TestShortcutAnswerHeaders pins what a warm answer carries, now that its
// headers are assigned to the header map directly instead of through
// Header.Set: a binary answer has exactly its six headers (seven in
// cluster mode), each with the one value naming the entry's key, graph,
// source, build time or the payload length, and the payload as the body;
// a JSON answer has exactly Content-Type and the source header, and the
// body encoding/json renders for the entry. Every name is canonical, as
// Set would have made it. A relayed answer carries the owner's headers
// and body (see checkRelayedAnswers).
func TestShortcutAnswerHeaders(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Obs: reg, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st, Obs: reg})
	srv, h := newServer(eng, jobs.Config{Store: st}, serverOptions{reg: reg, store: st})
	srv.mgr.Start()
	t.Cleanup(func() {
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})
	t.Run("single-node", func(t *testing.T) {
		checkWarmAnswers(t, eng, st, h, false, "")
	})

	nodes := newNodeCluster(t, 2)
	t.Run("cluster", func(t *testing.T) {
		n := nodes[0]
		checkWarmAnswers(t, n.eng, n.st, n.ts.Handler, true, n.addr)
	})
	t.Run("relayed", func(t *testing.T) {
		checkRelayedAnswers(t, nodes)
	})
}

// checkRelayedAnswers asks the node of a two-node cluster that does not
// own grid:64x64 blobs:32 seed 6 for a warm binary and a warm JSON
// answer, and the owner for the same answers directly. The relayed
// answer has exactly the owner's headers, with the source prefixed
// "forward:" and Content-Length equal to the body's length (net/http
// fills it in on the owner's JSON answer), and the owner's body: for the
// binary answer, the stored payload byte for byte. Before the relay
// copied Content-Length, net/http chunked every relayed body over 2 KiB.
func checkRelayedAnswers(t *testing.T, nodes []*clusterNode) {
	g, _, err := cli.ParseGraph("grid:64x64", 0)
	if err != nil {
		t.Fatal(err)
	}
	var fp service.Fingerprint
	for _, n := range nodes {
		if fp, err = n.eng.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	key := specKey(t, g, fp, "blobs:32", 6)
	entry := nonOwner(t, nodes, key)
	owner := nodes[0]
	if owner == entry {
		owner = nodes[1]
	}
	frame := wire.ShortcutRequest{Graph: fp, Partition: "blobs:32", Seed: 6}
	serveRecorded(t, entry.ts.Handler, frame, false, false) // build on the owner and measure
	var payload []byte
	eventually(t, "the shortcut record in the owner's store", func() bool {
		p, ok, err := owner.st.ShortcutPayload(key)
		payload = p
		return err == nil && ok
	})
	if len(payload) <= 2048 {
		t.Fatalf("a %d-byte payload is not over net/http's 2 KiB chunking threshold", len(payload))
	}

	for _, binary := range []bool{true, false} {
		direct := serveRecorded(t, owner.ts.Handler, frame, binary, true)
		relayed := serveRecorded(t, entry.ts.Handler, frame, binary, false)
		want := make(map[string]string)
		for name, vals := range direct.Header() {
			want[name] = vals[0]
		}
		want[wire.HeaderSource] = "forward:" + want[wire.HeaderSource]
		want["Content-Length"] = strconv.Itoa(direct.Body.Len())
		checkAnswerHeaders(t, relayed.Header(), want)
		if !bytes.Equal(relayed.Body.Bytes(), direct.Body.Bytes()) {
			t.Errorf("%s: relayed body\n%q\nwant the owner's\n%q", encodingName(binary), relayed.Body, direct.Body)
		}
		if binary && !bytes.Equal(relayed.Body.Bytes(), payload) {
			t.Errorf("relayed binary body: %d bytes, not the stored %d-byte payload", relayed.Body.Len(), len(payload))
		}
	}
}

// checkWarmAnswers builds grid:12x12 blobs:8 seed 5 on eng behind h, waits
// for its record to land in st, then checks a warm binary and a warm JSON
// answer. servedBy is the node a cluster answer must name.
func checkWarmAnswers(t *testing.T, eng *service.Engine, st store.Backend, h http.Handler,
	forwarded bool, servedBy string) {

	g, _, err := cli.ParseGraph("grid:12x12", 0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := eng.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cli.ParsePartition(g, "blobs:8", 5)
	if err != nil {
		t.Fatal(err)
	}
	key := service.ShortcutKey(fp, parts, shortcut.Options{})
	frame := wire.ShortcutRequest{Graph: fp, Partition: "blobs:8", Seed: 5}
	serveRecorded(t, h, frame, false, forwarded) // build and measure
	var payload []byte
	eventually(t, "the shortcut record in the store", func() bool {
		p, ok, err := st.ShortcutPayload(key)
		payload = p
		return err == nil && ok
	})
	c, ok := eng.Shortcut(key)
	if !ok {
		t.Fatal("built shortcut not resident")
	}

	bin := serveRecorded(t, h, frame, true, forwarded)
	want := map[string]string{
		"Content-Type":     wire.ContentType,
		"Content-Length":   strconv.Itoa(len(payload)),
		wire.HeaderKey:     fmt.Sprintf("%016x", uint64(key)),
		wire.HeaderGraph:   fmt.Sprintf("%016x", uint64(fp)),
		wire.HeaderSource:  "cache",
		wire.HeaderBuildNs: strconv.FormatInt(c.BuildTime.Nanoseconds(), 10),
	}
	if servedBy != "" {
		want[wire.HeaderServedBy] = servedBy
	}
	checkAnswerHeaders(t, bin.Header(), want)
	if !bytes.Equal(bin.Body.Bytes(), payload) {
		t.Errorf("binary body: %d bytes, not the stored %d-byte payload", bin.Body.Len(), len(payload))
	}

	js := serveRecorded(t, h, frame, false, forwarded)
	checkAnswerHeaders(t, js.Header(), map[string]string{
		"Content-Type":    "application/json",
		wire.HeaderSource: "cache",
	})
	q, ok := c.QualityIfReady()
	if !ok {
		t.Fatal("warm entry not measured")
	}
	wantBody, err := json.Marshal(shortcutResponse{
		Shortcut: fmt.Sprintf("%016x", uint64(key)), Graph: fmt.Sprintf("%016x", uint64(fp)),
		Cached: true, Source: "cache", ServedBy: servedBy,
		BuildMillis: float64(c.BuildTime/time.Microsecond) / 1000, Delta: c.Result.Delta,
		Congestion: q.Congestion, Dilation: q.Dilation, MaxBlocks: q.MaxBlocks, CoveredParts: q.CoveredParts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := js.Body.String(); got != string(wantBody)+"\n" {
		t.Errorf("JSON body\n%s\nwant\n%s", got, wantBody)
	}
}

// TestShortcutJSONMatchesEncoder holds appendShortcutJSON to encoding/json
// over generated answers: every source, served_by empty, plain and with
// each kind of byte encoding/json escapes or replaces, build times of 0, of 1e6 ms and at the ends of time.Duration,
// and random counts. The sync answer with its newline is what
// json.Encoder.Encode writes, and the async job result what json.Marshal
// returns, for the shortcutResponse of the same values.
func TestShortcutJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buildTimes := []time.Duration{0, 1e6 * time.Millisecond, time.Microsecond, -time.Microsecond,
		time.Duration(math.MaxInt64), time.Duration(math.MinInt64)}
	for range 50 {
		buildTimes = append(buildTimes, time.Duration(rng.Int64N(1e6))*time.Microsecond,
			time.Duration(rng.Int64()))
	}
	var buf []byte
	for i, bt := range buildTimes {
		for _, source := range []string{"cache", "store", "peer", "built"} {
			for _, servedBy := range []string{"", "127.0.0.1:7101", `"q"`, `back\slash`, "a<b", "b>a", "a&b", "tab\t",
				"del\x7f", "é", "\u2028", "\xff"} {
				sv := served{hit: source == "cache", source: source, servedBy: servedBy, entry: &service.Cached{
					Key: service.Fingerprint(rng.Uint64()), GraphFP: service.Fingerprint(rng.Uint64()),
					BuildTime: bt, Result: &shortcut.Result{Delta: rng.IntN(1 << 20)},
				}}
				q := shortcut.Quality{Congestion: rng.IntN(1e6), Dilation: int(rng.Int64()), MaxBlocks: rng.IntN(100),
					CoveredParts: -rng.IntN(3)}
				resp := shortcutResponse{
					Shortcut: sv.entry.Key.String(), Graph: sv.entry.GraphFP.String(), Cached: sv.hit,
					Source: source, ServedBy: servedBy, BuildMillis: float64(bt.Microseconds()) / 1000,
					Delta: sv.entry.Result.Delta, Congestion: q.Congestion, Dilation: q.Dilation,
					MaxBlocks: q.MaxBlocks, CoveredParts: q.CoveredParts,
				}
				var enc bytes.Buffer
				if err := json.NewEncoder(&enc).Encode(resp); err != nil {
					t.Fatal(err)
				}
				buf = append(appendShortcutJSON(buf[:0], sv, q), '\n')
				if !bytes.Equal(buf, enc.Bytes()) {
					t.Fatalf("case %d: rendered\n%s\nencoding/json writes\n%s", i, buf, enc.Bytes())
				}
				marshaled, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendShortcutJSON(nil, sv, q); !bytes.Equal(got, marshaled) {
					t.Fatalf("case %d: job result\n%s\njson.Marshal returns\n%s", i, got, marshaled)
				}
			}
		}
	}
}
