package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"locshort/internal/jobs"
	"locshort/internal/service"
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
