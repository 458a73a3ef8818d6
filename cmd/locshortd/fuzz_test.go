package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/wire"
)

// fuzzMaxCost bounds the graphs FuzzResolve builds, in specCost units
// (about nodes plus edges): 4096 nodes of grid, and no more.
const fuzzMaxCost = 4096

// specCost estimates the size of the graph cli.ParseGraph would build for
// spec from the sizes the spec names, without building it: the node
// count, or the edge count where that dominates. A spec over 4·MaxEdges
// is over one of the ingest limits, which ParseGraph checks before it
// allocates anything, so such a spec is cheap to parse however large it
// claims to be.
func specCost(spec string) float64 {
	kind, arg, _ := strings.Cut(spec, ":")
	var nums []float64
	for _, f := range strings.FieldsFunc(arg, func(r rune) bool { return r < '0' || r > '9' }) {
		v, _ := strconv.ParseFloat(f, 64)
		nums = append(nums, v)
	}
	cost, sum := 1.0, 0.0
	for _, v := range nums {
		cost *= v
		sum += v
	}
	switch kind {
	case "complete": // N(N-1)/2 edges
		cost *= cost
	case "random": // N nodes, M edges
		cost = sum
	case "lb": // about ((Δ'-3)·D'/2)² nodes
		if len(nums) == 2 {
			cost = (nums[0] - 3) * nums[1] / 2
			cost *= cost
		}
	}
	return cost
}

// FuzzResolve runs (graph spec, partition spec, seed, options) through
// what a POST /v1/graphs then POST /v1/shortcuts pair does before any
// build: cli.ParseGraph, engine registration, and server.resolve. Nothing
// may panic, and every resolve error must be a 400 statusError or
// service.ErrUnknownGraph. A graph spec ParseGraph refuses is sent as the
// request's graph field instead, which must fail the same two ways. Graphs
// over 4096 nodes are skipped so iterations stay fast, and every graph
// registered is deleted through the DELETE handler, key memo included.
// The committed corpus (testdata/fuzz/FuzzResolve) holds the specs that
// used to crash or wrap: rows:-1x-4, rows:0x5, blobs:0, grid:70000x70000
// and delta=576460752303423489,cf=16.
func FuzzResolve(f *testing.F) {
	f.Add("grid:16x16", "blobs:16", int64(1), "")
	f.Add("wheel:50", "rim", int64(0), "cf=2,bf=3")
	f.Add("torus:8x8", "singletons", int64(0), "delta=2,maxdelta=8,iters=4")
	eng := service.New(service.Config{Workers: 1})
	srv, h := newServer(eng, jobs.Config{}, serverOptions{})
	f.Cleanup(func() {
		srv.mgr.Close()
		eng.Close()
	})
	f.Fuzz(func(t *testing.T, graphSpec, partSpec string, seed int64, options string) {
		if c := specCost(graphSpec); c > fuzzMaxCost && c <= 4*graph.MaxEdges {
			t.Skip("graph too big to build per iteration")
		}
		req := shortcutRequest{Graph: graphSpec, Partition: partSpec, Seed: seed, Options: options}
		if g, _, err := cli.ParseGraph(graphSpec, seed); err == nil {
			if g.NumNodes() > fuzzMaxCost {
				t.Skip("graph too big to build per iteration")
			}
			fp, err := eng.AddGraph(g)
			if err != nil {
				t.Fatalf("AddGraph(%q): %v", graphSpec, err)
			}
			defer func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/graphs/"+fp.String(), nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("DELETE %s: status %d: %s", fp, rec.Code, rec.Body)
				}
			}()
			req.Graph = fp.String()
		}
		_, err := srv.resolve(req)
		var se *statusError
		switch {
		case err == nil, errors.Is(err, service.ErrUnknownGraph):
		case errors.As(err, &se) && se.status == http.StatusBadRequest:
		default:
			t.Fatalf("resolve(%+v): %v (status %d), want a 400 or an unknown graph", req, err, statusFor(err))
		}
	})
}

// FuzzDecodeShortcutJSON holds scanShortcutJSON to encoding/json: a body
// the scanner takes must decode through strictUnmarshal without error to
// the same partition, seed and options, a graph whose ParseFingerprint is
// the scanned fingerprint, no parts and no async. Every other body goes to
// strictUnmarshal, which decides it. The interning scan, through a table
// small enough to fill, must decode every body as the copying one does.
// The seeds are the bodies every client sends, spaced and unspaced, and
// handedOnBodies, each of which the scanner must hand on.
func FuzzDecodeShortcutJSON(f *testing.F) {
	const fp = "0123456789abcdef"
	for _, body := range []string{plainBody, `{"graph":"FP","partition":"blobs:16","seed":1}`,
		` { "graph" : "FP" ,` + "\n\t" + `"partition" : "rows:2x2", "options" : "cf=2,bf=3", "seed" : -0 }` + "\r\n",
		`{"seed":-999999999999999999,"options":"","partition":"","graph":"0123456789ABCDEF"}`} {
		f.Add([]byte(strings.ReplaceAll(body, "FP", fp)))
	}
	for _, tc := range handedOnBodies {
		body := []byte(strings.ReplaceAll(tc.body, "FP", fp))
		if _, ok := scanShortcutJSON(body, nil); ok {
			f.Fatalf("%s: scanned, but the scanner must hand it on", tc.name)
		}
		f.Add(body)
	}
	strs := wire.NewInterner(16, 8)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanShortcutJSON(body, nil)
		if interned, iok := scanShortcutJSON(body, strs); iok != ok || !reflect.DeepEqual(interned, got) {
			t.Fatalf("%q: interning scan %+v (%v), copying scan %+v (%v)", body, interned, iok, got, ok)
		}
		if !ok {
			return
		}
		var want shortcutRequest
		if err := strictUnmarshal(body, &want); err != nil {
			t.Fatalf("scanned %q, but encoding/json fails it: %v", body, err)
		}
		wantFP, err := service.ParseFingerprint(want.Graph)
		if err != nil || !got.hasFP || got.fp != wantFP || got.Graph != "" || got.Partition != want.Partition ||
			got.Seed != want.Seed || got.Options != want.Options || got.Parts != nil || want.Parts != nil ||
			got.Async || want.Async {
			t.Fatalf("%q: scanned %+v, encoding/json decodes %+v (graph %v, %v)", body, got, want, wantFP, err)
		}
	})
}
