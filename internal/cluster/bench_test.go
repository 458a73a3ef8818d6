package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"locshort/internal/store"
	"locshort/internal/wire"
)

// newForwarder starts an owner serving h on loopback and returns a
// Cluster whose one peer that owner is, with the owner's server and
// address. Zero fields of cfg take New's defaults.
func newForwarder(tb testing.TB, h http.Handler, cfg Config) (*Cluster, *httptest.Server, string) {
	tb.Helper()
	srv := httptest.NewServer(h)
	tb.Cleanup(srv.Close)
	owner := strings.TrimPrefix(srv.URL, "http://")
	return newPeerOf(tb, owner, cfg), srv, owner
}

// newPeerOf returns a Cluster of two nodes: itself, which is never dialed,
// and peer.
func newPeerOf(tb testing.TB, peer string, cfg Config) *Cluster {
	tb.Helper()
	st, err := store.Open(filepath.Join(tb.TempDir(), "data"), store.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	cfg.Self, cfg.Nodes, cfg.Store = "127.0.0.1:1", []string{"127.0.0.1:1", peer}, st
	cl, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// BenchmarkForward is one forward hop, both ends: Cluster.Forward relays a
// binary request frame to a loopback owner that answers the way locshortd
// answers a binary shortcut request, with a fixed payload, Content-Length
// and the X-Locshort-* headers. allocs/op counts the in-process owner's
// net/http server too.
func BenchmarkForward(b *testing.B) {
	payload := bytes.Repeat([]byte{0xa5}, 4096)
	contentLength := strconv.Itoa(len(payload))
	owner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h := w.Header()
		h.Set("Content-Type", wire.ContentType)
		h.Set(wire.HeaderKey, "5bd1e9955bd1e995")
		h.Set(wire.HeaderGraph, "c6a4a7935bd1e995")
		h.Set(wire.HeaderSource, "cache")
		h.Set(wire.HeaderBuildNs, "1250000")
		h.Set(wire.HeaderServedBy, "127.0.0.1:2")
		h.Set("Content-Length", contentLength)
		if _, err := w.Write(payload); err != nil {
			b.Error(err)
		}
	})
	cl, _, addr := newForwarder(b, owner, Config{})
	frame := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{
		Graph: 0xc6a4a7935bd1e995, Partition: "blobs:16", Seed: 7})
	// A request context can be canceled, as the daemon's relay's is.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	for b.Loop() {
		status, _, body, err := cl.Forward(ctx, addr, "/v1/shortcuts", frame, wire.ContentType)
		if err != nil || status != http.StatusOK || len(body) != len(payload) {
			b.Fatalf("forward: status %d, %d bytes, err %v", status, len(body), err)
		}
	}
}
