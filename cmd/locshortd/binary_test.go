package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// doBinary performs an HTTP request with the binary content negotiation
// headers and returns the response; body is optional.
func doBinary(t *testing.T, method, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	if body != nil {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBinaryProtocolEndToEnd drives the full binary warm path against a
// store-backed daemon and checks byte equivalence with the JSON protocol:
// same fingerprints, same keys, and a response payload that decodes and
// re-verifies as the exact shortcut the JSON API describes.
func TestBinaryProtocolEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 2, Store: st})
	srv, h := newServer(eng, jobs.Config{Store: st}, serverOptions{store: st})
	srv.mgr.Start()
	ts := serveLoop(t, h)
	t.Cleanup(func() {
		ts.Close()
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})

	// Binary graph ingest: the body is the canonical payload; the ack
	// carries the fingerprint in headers and ETag, with an empty body.
	g, _, err := cli.ParseGraph("grid:10x10", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := store.EncodeGraphPayload(g)
	fp := service.FingerprintBytes(payload[1:])
	resp := doBinary(t, "POST", ts.URL+"/v1/graphs", payload, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.HeaderGraph); got != fp.String() {
		t.Fatalf("ingest fingerprint %q, want %q", got, fp)
	}
	if got := resp.Header.Get("ETag"); got != `"`+fp.String()+`"` {
		t.Errorf("ETag %q, want quoted fingerprint", got)
	}
	resp.Body.Close()

	// JSON ingest of the same graph must agree on the fingerprint — the
	// two protocols address identical content identically.
	var jg struct {
		Graph string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:10x10"}, http.StatusOK, &jg)
	if jg.Graph != fp.String() {
		t.Fatalf("JSON ingest fingerprint %q, binary %q", jg.Graph, fp)
	}

	// Repeat ingest with If-None-Match short-circuits to 304 before the
	// body uploads.
	resp = doBinary(t, "POST", ts.URL+"/v1/graphs", payload,
		map[string]string{"If-None-Match": `"` + fp.String() + `"`})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("dedupe probe: status %d, want 304", resp.StatusCode)
	}
	resp.Body.Close()

	// Binary shortcut request + binary response.
	breq := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{
		Graph: fp, Partition: "blobs:10", Seed: 3,
	})
	resp = doBinary(t, "POST", ts.URL+"/v1/shortcuts", breq, nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary shortcut: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsBinary(ct) {
		t.Fatalf("response Content-Type %q", ct)
	}
	key, err := service.ParseFingerprint(resp.Header.Get(wire.HeaderKey))
	if err != nil {
		t.Fatalf("bad %s header: %v", wire.HeaderKey, err)
	}
	if got := resp.Header.Get(wire.HeaderGraph); got != fp.String() {
		t.Errorf("shortcut graph header %q, want %q", got, fp)
	}
	if src := resp.Header.Get(wire.HeaderSource); src != "built" {
		t.Errorf("first build source %q, want built", src)
	}
	binPayload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The payload decodes against the representative graph and the decode
	// re-derives the key from the stored inputs — a tampered payload
	// cannot survive this.
	p, err := cli.ParsePartition(g, "blobs:10", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := store.DecodeShortcutPayload(binPayload, key, g, p)
	if err != nil {
		t.Fatalf("binary payload does not verify: %v", err)
	}
	if res.Shortcut == nil {
		t.Fatal("decoded result has no shortcut")
	}

	// JSON request for the same build must return the same key, and the
	// second binary request is a warm hit ("cache").
	var js struct {
		Shortcut string `json:"shortcut"`
		Graph    string `json:"graph"`
	}
	postJSON(t, ts.URL+"/v1/shortcuts",
		map[string]any{"graph": fp.String(), "partition": "blobs:10", "seed": 3},
		http.StatusOK, &js)
	if js.Shortcut != key.String() {
		t.Fatalf("JSON key %q, binary key %q", js.Shortcut, key)
	}
	resp = doBinary(t, "POST", ts.URL+"/v1/shortcuts", breq, nil)
	warmPayload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(wire.HeaderSource); src != "cache" {
		t.Errorf("repeat source %q, want cache", src)
	}
	if !bytes.Equal(warmPayload, binPayload) {
		t.Error("warm response payload differs from cold response payload")
	}

	// A JSON-Accept client sending a binary request body still gets JSON.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/shortcuts", bytes.NewReader(breq))
	req.Header.Set("Content-Type", wire.ContentType)
	mixed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Body.Close()
	if mixed.StatusCode != http.StatusOK {
		t.Fatalf("binary-request/JSON-response: status %d", mixed.StatusCode)
	}
	if ct := mixed.Header.Get("Content-Type"); wire.IsBinary(ct) {
		t.Errorf("mixed request got binary response despite no Accept: %q", ct)
	}
}

// TestBinaryGraphIngestRejectsGarbage asserts the raw ingest path keeps
// the validation the JSON path gets from its parser: corrupt payloads and
// bad If-None-Match fingerprints are 4xx, never 5xx or silent acceptance.
func TestBinaryGraphIngestRejectsGarbage(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	g, _, err := cli.ParseGraph("cycle:9", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := store.EncodeGraphPayload(g)

	// Self-loop: zero out the first edge's v so u == v == 0.
	selfLoop := append([]byte{}, payload...)
	copy(selfLoop[1+16+8:1+16+16], make([]byte, 8))
	// Unsorted: swap the first two 24-byte edge entries out of canonical
	// order.
	unsorted := append([]byte{}, payload...)
	e0, e1 := 1+16, 1+16+24
	copy(unsorted[e0:e0+24], payload[e1:e1+24])
	copy(unsorted[e1:e1+24], payload[e0:e0+24])
	for name, body := range map[string][]byte{
		"empty":       {},
		"version":     {0x7f},
		"truncated":   payload[:len(payload)-3],
		"self-loop":   selfLoop,
		"unsorted":    unsorted,
		"only-header": payload[:17],
	} {
		resp := doBinary(t, "POST", ts.URL+"/v1/graphs", body, nil)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s payload: status %d, want 4xx", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := doBinary(t, "POST", ts.URL+"/v1/graphs", payload,
		map[string]string{"If-None-Match": `"not-a-fingerprint"`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad If-None-Match: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBinaryVsJSONIngestFaster is the CI bench smoke: ingesting the same
// graph over the binary protocol must cost less per request than over
// JSON. The binary path's whole reason to exist is collapsing the JSON
// decode → build → re-encode round trip into hash + validate; if this
// inverts, the fast path regressed.
func TestBinaryVsJSONIngestFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	g, _, err := cli.ParseGraph("random:600,2400", 7)
	if err != nil {
		t.Fatal(err)
	}
	payload := store.EncodeGraphPayload(g)

	// The JSON client sends the explicit edge list — what a client that
	// holds a concrete graph (rather than a spec) would upload.
	edges := make([][]float64, 0, g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		edges = append(edges, []float64{float64(e.U), float64(e.V), e.W})
	}
	jsonBody, err := marshalGraphRequest(g.NumNodes(), edges)
	if err != nil {
		t.Fatal(err)
	}

	client := http.DefaultClient
	post := func(body []byte, ct string) error {
		req, err := http.NewRequest("POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ct)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	bin := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(payload, wire.ContentType); err != nil {
				b.Fatal(err)
			}
		}
	})
	jsn := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(jsonBody, "application/json"); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("ingest ns/op: binary %d, json %d (%.2fx)",
		bin.NsPerOp(), jsn.NsPerOp(), float64(jsn.NsPerOp())/float64(bin.NsPerOp()))
	if bin.NsPerOp() >= jsn.NsPerOp() {
		t.Errorf("binary ingest (%d ns/op) not faster than JSON (%d ns/op)",
			bin.NsPerOp(), jsn.NsPerOp())
	}
}

// marshalGraphRequest renders the JSON ingest body for an explicit edge
// list without pulling encoding/json into the hot loop above.
func marshalGraphRequest(nodes int, edges [][]float64) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"nodes":%d,"edges":[`, nodes)
	for i, e := range edges {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "[%g,%g,%g]", e[0], e[1], e[2])
	}
	buf.WriteString("]}")
	return buf.Bytes(), nil
}
