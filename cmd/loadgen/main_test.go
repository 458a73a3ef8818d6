package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"locshort/internal/service"
	"locshort/internal/wire"
)

// fake is an httptest stand-in for one locshortd node. It answers the
// routes loadgen calls and records the partition seeds it was asked for.
// Its fields are set before start.
type fake struct {
	*httptest.Server
	fail  int           // the shortcut request, counted from 1, answered 500; 0: none
	job   string        // the state every async job ends in; "": done
	stats service.Stats // what GET /v1/stats reports

	mu    sync.Mutex
	reqs  int
	seeds map[int64]bool
}

func (f *fake) start(t *testing.T) *fake {
	f.seeds = map[int64]bool{}
	if f.job == "" {
		f.job = "done"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready") })
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !wire.IsBinary(r.Header.Get("Content-Type")) {
			fmt.Fprintf(w, `{"graph":%q}`, service.FingerprintBytes(body))
		} else if r.Header.Get("If-None-Match") != fmt.Sprintf(`"%s"`, service.FingerprintBytes(body[1:])) {
			http.Error(w, "If-None-Match does not name the payload", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("POST /v1/shortcuts", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		binary := wire.IsBinary(r.Header.Get("Content-Type"))
		var req struct {
			Seed  int64
			Async bool
		}
		if binary {
			fr, err := wire.DecodeShortcutRequest(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.Seed = fr.Seed
		} else if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.reqs++
		fail := f.reqs == f.fail
		f.seeds[req.Seed] = true
		f.mu.Unlock()
		switch {
		case fail:
			http.Error(w, "handler bug", http.StatusInternalServerError)
		case req.Async:
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"1","state":"queued"}`)
		case binary:
			w.Header().Set(wire.HeaderSource, "forward:cache")
			w.Write([]byte{1, 2, 3})
		default:
			io.WriteString(w, `{"source":"cache"}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"state":%q,"error":"boom","result":{"source":"built"}}`, r.PathValue("id"), f.job)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"stats": f.stats})
	})
	f.Server = httptest.NewServer(mux)
	t.Cleanup(f.Close)
	return f
}

// asked reports whether the node was asked for the seed.
func (f *fake) asked(seed int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seeds[seed]
}

// runOn runs loadgen for 200 ms against the nodes, one one-seed graph,
// then args, and returns what it printed and its error.
func runOn(nodes []*fake, args ...string) (string, error) {
	urls := make([]string, len(nodes))
	for i, f := range nodes {
		urls[i] = f.URL
	}
	var out bytes.Buffer
	err := run(append([]string{"-addr", strings.Join(urls, ","), "-duration", "200ms",
		"-catalog", "grid:4x4", "-parts", "blobs:2", "-seeds", "1"}, args...), &out)
	return out.String(), err
}

// TestFailedRequestFails: one 500 among a run's answers fails the run,
// and the report counts it.
func TestFailedRequestFails(t *testing.T) {
	out, err := runOn([]*fake{(&fake{fail: 3}).start(t), (&fake{}).start(t)})
	if err == nil || !strings.Contains(err.Error(), "500 Internal Server Error: handler bug") {
		t.Fatalf("a run with a 500 answer returned %v", err)
	}
	if !strings.Contains(out, ", 1 errors (cache ") {
		t.Errorf("report does not count the failed request:\n%s", out)
	}
}

// TestRequireFlags: each -require-* flag fails a run whose summed
// counter is zero, and passes one where any node counts one.
func TestRequireFlags(t *testing.T) {
	for _, tc := range []struct {
		flag  string
		stats service.Stats
		ok    bool
	}{
		{"-require-hits", service.Stats{StoreHits: 9}, false},
		{"-require-hits", service.Stats{CacheHits: 1}, true},
		{"-require-store-hits", service.Stats{CacheHits: 9}, false},
		{"-require-store-hits", service.Stats{StoreHits: 1}, true},
	} {
		out, err := runOn([]*fake{(&fake{}).start(t), (&fake{stats: tc.stats}).start(t)}, tc.flag, "-duration", "20ms")
		if (err == nil) != tc.ok {
			t.Errorf("%s with %+v: %v\n%s", tc.flag, tc.stats, err, out)
		}
	}
}

// TestEveryKeyThroughEveryNode: every mode asks each node for every
// seed, whether or not the seed count shares a factor with the nodes'.
func TestEveryKeyThroughEveryNode(t *testing.T) {
	for _, mode := range []string{"json", "binary", "async"} {
		for _, seeds := range []int64{2, 3} {
			nodes := []*fake{(&fake{}).start(t), (&fake{}).start(t)}
			out, err := runOn(nodes, "-mode", mode, "-seeds", fmt.Sprint(seeds))
			if err != nil {
				t.Fatalf("-mode %s -seeds %d: %v\n%s", mode, seeds, err, out)
			}
			for i, f := range nodes {
				for seed := int64(0); seed < seeds; seed++ {
					if !f.asked(seed) {
						t.Errorf("-mode %s -seeds %d: node %d never asked for seed %d", mode, seeds, i, seed)
					}
				}
			}
		}
	}
}

// TestFailedJobIsAnError: an async job that ends failed is a failed
// request.
func TestFailedJobIsAnError(t *testing.T) {
	_, err := runOn([]*fake{(&fake{job: "failed"}).start(t)}, "-mode", "async", "-duration", "20ms")
	if err == nil || !strings.Contains(err.Error(), "job 1 failed: boom") {
		t.Fatalf("a run whose jobs fail returned %v", err)
	}
}
