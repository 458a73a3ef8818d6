package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/wire"
)

// handedOnBodies are JSON shortcut bodies of every kind scanShortcutJSON
// hands to strictUnmarshal, for grid:8x8 blobs:4 seed 3 (FP is the
// graph's fingerprint), with the status they are answered with and the
// error the answer names. A 200 is the warm answer of plainBody for the
// same key, byte for byte; a 202 acknowledges a shortcut job.
var handedOnBodies = []struct {
	name   string
	body   string
	status int
	err    string
}{
	{"mixed-case keys", `{"Graph":"FP","Partition":"blobs:4","SEED":3}`, 200, ""},
	{"a key folding through ſ", `{"graph":"FP","partition":"blobs:4","ſeed":3}`, 200, ""},
	{"a key with the Kelvin sign", "{\"graph\":\"FP\",\"partition\":\"blobs:4\",\"seed\":3,\"\u212aind\":1}", 400, "json: unknown field \"\u212aind\""},
	{"an escaped partition", `{"graph":"FP","partition":"blobs:\u0034","seed":3}`, 200, ""},
	{"non-ASCII bytes", `{"graph":"FP","partition":"blobs:4","seed":3,"options":"cf=é"}`, 400, `cli: build options "cf=é": strconv.Atoi: parsing "é": invalid syntax`},
	{"a null value", `{"graph":"FP","partition":"blobs:4","seed":3,"options":null}`, 200, ""},
	{"a duplicate key", `{"graph":"FP","partition":"blobs:9","seed":3,"partition":"blobs:4"}`, 200, ""},
	{"a seed in exponent form", `{"graph":"FP","partition":"blobs:4","seed":3e0}`, 400, `json: cannot unmarshal number 3e0 into Go struct field shortcutRequest.seed of type int64`},
	{"a seed with a fraction", `{"graph":"FP","partition":"blobs:4","seed":3.0}`, 400, `json: cannot unmarshal number 3.0 into Go struct field shortcutRequest.seed of type int64`},
	{"a 19-digit seed", `{"graph":"FP","partition":"blobs:0","seed":1000000000000000003}`, 400, `partition: k = 0 out of range [1,64]`},
	{"a seed out of range", `{"graph":"FP","partition":"blobs:4","seed":9300000000000000000}`, 400, `json: cannot unmarshal number 9300000000000000000 into Go struct field shortcutRequest.seed of type int64`},
	{"a seed with a leading zero", `{"graph":"FP","partition":"blobs:4","seed":03}`, 400, `invalid character '3' after object key:value pair`},
	{"async", `{"graph":"FP","partition":"blobs:4","seed":3,"async":true}`, 202, ""},
	{"parts", `{"graph":"FP","partition":"blobs:4","parts":[[0]]}`, 400, `give either partition or parts, not both`},
	{"an unknown field", `{"graph":"FP","partition":"blobs:4","seed":3,"colour":"red"}`, 400, `json: unknown field "colour"`},
	{"bytes after the object", `{"graph":"FP","partition":"blobs:4","seed":3} {"seed":`, 200, ""},
	{"an empty body", ``, 400, `EOF`},
	{"a byte order mark", "\ufeff" + `{"graph":"FP","partition":"blobs:4","seed":3}`, 400, `invalid character 'ï' looking for beginning of value`},
	{"malformed JSON", `{"graph":"FP","partition":`, 400, `unexpected EOF`},
	{"a control character in a string", "{\"graph\":\"FP\",\"partition\":\"blobs:\t4\",\"seed\":3}", 400, "invalid character '\\t' in string literal"},
	{"a graph that is no fingerprint", `{"graph":"grid:8x8","partition":"blobs:4","seed":3}`, 400, `service: fingerprint "grid:8x8": want 16 hex digits`},
	{"no graph", `{"partition":"blobs:4","seed":3}`, 400, `service: fingerprint "": want 16 hex digits`},
}

// plainBody is the request every client sends, for the key of
// handedOnBodies.
const plainBody = `{"graph":"FP","partition":"blobs:4","seed":3}`

// TestHandedOnBodiesAnswerAsBefore: every kind of JSON shortcut body the
// scanner hands on answers with the status and the body the daemon gave it
// when encoding/json decoded every body (the error texts were read from
// that daemon).
func TestHandedOnBodiesAnswerAsBefore(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	var g graphResponse
	postJSON(t, ts.URL+"/v1/graphs", map[string]any{"spec": "grid:8x8"}, http.StatusOK, &g)
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/shortcuts", "application/json", strings.NewReader(strings.ReplaceAll(body, "FP", g.Graph)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	if status, body := post(plainBody); status != http.StatusOK {
		t.Fatalf("plain body: %d %s", status, body)
	}
	_, warm := post(plainBody)
	for _, tc := range handedOnBodies {
		status, body := post(tc.body)
		var job struct{ Kind string }
		var e struct{ Error string }
		switch {
		case status != tc.status:
		case status == http.StatusOK && bytes.Equal(body, warm):
			continue
		case status == http.StatusAccepted && json.Unmarshal(body, &job) == nil && job.Kind == jobKindShortcut:
			continue
		case status >= 400 && json.Unmarshal(body, &e) == nil && e.Error == tc.err:
			continue
		}
		t.Errorf("%s: %d %s; want %d %q (a 200 is %s)", tc.name, status, body, tc.status, tc.err, warm)
	}
}

// TestDecodedStringsOwnTheirBytes: a shortcut request's partition and
// options, JSON or binary, first seen, held by the server's intern table,
// or too long for it, survive the body buffer being overwritten and handed
// back to framePool. A memo hit carries Spec into Engine.Build, whose fill
// may parse it on a worker after the handler has pooled the body again.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	const fp = service.Fingerprint(0x0123456789abcdef)
	scribble := func() {
		var held [4]*[]byte
		for i := range held {
			held[i] = framePool.Get().(*[]byte)
			b := (*held[i])[:cap(*held[i])]
			for j := range b {
				b[j] = '#'
			}
		}
		for _, bp := range held {
			framePool.Put(bp)
		}
	}
	for _, spec := range []string{"blobs:4", strings.Repeat("x", keyMemoSpec+1)} {
		want := shortcutRequest{fp: fp, hasFP: true, Partition: spec, Seed: 3, Options: "cf=2"}
		bodies := map[string][]byte{
			"application/json": []byte(`{"graph":"` + fp.String() + `","partition":"` + spec + `","seed":3,"options":"cf=2"}`),
			wire.ContentType: wire.AppendShortcutRequest(nil, wire.ShortcutRequest{
				Graph: fp, Partition: spec, Seed: 3, Options: "cf=2"}),
		}
		for ct, body := range bodies {
			for round := range 2 {
				r := httptest.NewRequest(http.MethodPost, "/v1/shortcuts", bytes.NewReader(body))
				r.Header.Set("Content-Type", ct)
				got, err := readShortcutRequest(httptest.NewRecorder(), r, srv.strs)
				scribble()
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d-byte spec, round %d: %+v, %v; want %+v", ct, len(spec), round, got, err, want)
				}
			}
		}
		buf := append([]byte(nil), bodies["application/json"]...)
		got, err := decodeShortcutJSON(buf, srv.strs)
		clear(buf)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte spec with its body cleared: %+v, %v; want %+v", len(spec), got, err, want)
		}
	}
}

// TestRequestStringsPastTheInternBounds: a spec the server's intern table
// holds scans with no allocation, so the scanner makes no closure or method
// value per request. Once the table holds keyMemoLimit strings, a new spec
// still decodes, JSON or binary, as a fresh copy on every request; so does
// a spec longer than keyMemoSpec.
func TestRequestStringsPastTheInternBounds(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1}, jobs.Config{})
	const fp = service.Fingerprint(0x0123456789abcdef)
	jsonBody := func(spec string) []byte {
		return []byte(`{"graph":"` + fp.String() + `","partition":"` + spec + `","seed":3}`)
	}
	decodes := func(spec string, want float64) {
		t.Helper()
		jb := jsonBody(spec)
		bb := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: spec, Seed: 3})
		for name, decode := range map[string]func() string{
			"JSON": func() string { req, _ := scanShortcutJSON(jb, srv.strs); return req.Partition },
			"binary": func() string {
				req, _ := wire.DecodeShortcutRequestInterned(bb, srv.strs)
				return req.Partition
			},
		} {
			n := testing.AllocsPerRun(20, func() {
				if got := decode(); got != spec {
					t.Fatalf("%s: partition %q, want %q", name, got, spec)
				}
			})
			if !raceEnabled && n != want {
				t.Errorf("%s, %d-byte spec: %.1f allocs, want %v", name, len(spec), n, want)
			}
		}
	}
	decodes("blobs:4", 0)
	for i := range keyMemoLimit {
		scanShortcutJSON(jsonBody(fmt.Sprintf("fill:%d", i)), srv.strs)
	}
	decodes("blobs:4", 0)
	decodes("rows:2x2", 1)
	decodes(strings.Repeat("x", keyMemoSpec+1), 1)
}
