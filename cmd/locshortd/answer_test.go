package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// Set would have made it.
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
		checkWarmAnswers(t, n.eng, n.st, n.ts.Config.Handler, true, n.addr)
	})
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
