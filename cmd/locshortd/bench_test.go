package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// rawClient is an HTTP/1.1 keep-alive client that allocates nothing per
// request once its buffers have grown: requests are written pre-rendered,
// and an answer is parsed for its status and Content-Length only. With it,
// a benchmark's allocs/op counts the server alone.
type rawClient struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

func dialRaw(tb testing.TB, addr string) *rawClient {
	tb.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return &rawClient{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

// rawRequest renders one POST /v1/shortcuts request.
func rawRequest(addr, contentType, accept string, body []byte) []byte {
	b := []byte("POST /v1/shortcuts HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: " + contentType)
	if accept != "" {
		b = append(b, "\r\nAccept: "+accept...)
	}
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

var (
	errRawStatus = errors.New("raw client: malformed status line")
	errRawLength = errors.New("raw client: answer without a Content-Length")
	hdrLength    = []byte("content-length")
	colon        = []byte(":")
)

// do writes req and reads the whole answer; the body is valid until the
// next call.
func (c *rawClient) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errRawStatus
	}
	status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, colon)
		if !bytes.EqualFold(name, hdrLength) {
			continue
		}
		length = 0
		for _, d := range bytes.TrimSpace(value) {
			length = length*10 + int(d-'0')
		}
	}
	if length < 0 {
		return status, nil, errRawLength
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.r, c.body)
	return status, c.body, err
}

// BenchmarkServeHit is one warm POST /v1/shortcuts answer through the
// daemon's whole HTTP stack: the handler newServer returns, wired as main
// wires it (segment store, metrics registry, tracer, and no logger, as
// under -quiet), served by the connection loop on a loopback port. Four
// warm grid:16x16 blobs:16 keys are asked for in turn, each record
// already in the store, by a rawClient, so allocs/op is the loop's work
// plus the handler's own. The relay-* sub-benchmarks ask for the same keys, each
// through the node of a two-node cluster that does not own it, so they
// count the entry node's relay, one forward hop, and the owner's answer.
func BenchmarkServeHit(b *testing.B) {
	c, jsonReqs, binReqs := hitServer(b)
	clients := [4]*rawClient{c, c, c, c}
	relayClients, relayJSON, relayBin := relayRequests(b)
	for _, enc := range []struct {
		name    string
		clients [4]*rawClient
		reqs    [4][]byte
	}{
		{"json", clients, jsonReqs}, {"binary", clients, binReqs},
		{"relay-json", relayClients, relayJSON}, {"relay-binary", relayClients, relayBin},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				k := i % len(enc.reqs)
				status, body, err := enc.clients[k].do(enc.reqs[k])
				if err != nil || status != http.StatusOK || len(body) == 0 {
					b.Fatalf("status %d, %d bytes, err %v", status, len(body), err)
				}
				i++
			}
		})
	}
}

// TestServeHitAllocs pins a warm answer in each encoding through the
// connection loop and the handler, both counted, as BenchmarkServeHit
// serves it: at most 1 allocation for a JSON answer and 3 for a binary
// one, each its reading plus 1. With the partition string copied out of
// every body and the active segment read by pread they made 1 and 4;
// behind net/http's server 39 and 29.
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c, jsonReqs, binReqs := hitServer(t)
	for _, enc := range []struct {
		name  string
		reqs  [4][]byte
		limit float64
	}{{"JSON", jsonReqs, 1}, {"binary", binReqs, 3}} {
		i := 0
		allocs := testing.AllocsPerRun(400, func() {
			status, body, err := c.do(enc.reqs[i%len(enc.reqs)])
			if err != nil || status != http.StatusOK || len(body) == 0 {
				t.Fatalf("%s: status %d, %d bytes, err %v", enc.name, status, len(body), err)
			}
			i++
		})
		t.Logf("%.2f allocs per warm %s answer", allocs, enc.name)
		if allocs > enc.limit {
			t.Errorf("%.2f allocs per warm %s answer, want at most %v", allocs, enc.name, enc.limit)
		}
	}
}

// hitServer serves BenchmarkServeHit's single node and warms its four
// keys; it returns a client of the node and each key's JSON and binary
// request.
func hitServer(tb testing.TB) (c *rawClient, jsonReqs, binReqs [4][]byte) {
	eng, st, addr := benchNode(tb)
	g := hitGraph(tb)
	fp, err := eng.AddGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	c = dialRaw(tb, addr)
	for i := range jsonReqs {
		seed := int64(i + 1)
		jsonReqs[i], binReqs[i] = warmHit(tb, c, addr, fp, hitKey(tb, g, fp, seed), seed, st)
	}
	return c, jsonReqs, binReqs
}

// benchNode serves the benchmarks' single node: newServer's handler wired
// as main wires it (segment store, metrics registry, tracer, and no
// logger, as under -quiet), on the connection loop on a loopback port. It
// returns the node's engine, its store and its address.
func benchNode(tb testing.TB) (*service.Engine, *store.Store, string) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(128)
	st, err := store.Open(tb.TempDir(), store.Options{Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	eng := service.New(service.Config{Store: st, Obs: reg, Tracer: tracer})
	var ready atomic.Bool
	srv, h := newServer(eng, jobs.Config{Store: st, Obs: reg}, serverOptions{
		reg: reg, tracer: tracer, ready: ready.Load, store: st,
	})
	srv.mgr.Start()
	ready.Store(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hs := newHTTP1Server(h, nil, nil)
	go func() { _ = hs.Serve(ln) }() // http.ErrServerClosed at the cleanup
	tb.Cleanup(func() {
		_ = hs.Shutdown(context.Background())
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})
	return eng, st, ln.Addr().String()
}

// BenchmarkServeCold is one cold POST /v1/shortcuts JSON answer through
// the daemon's whole HTTP stack, on benchNode's node (as BenchmarkServeHit
// wires it). Each op asks for a never-used seed on the cold-build catalog
// (grid:64x64, torus:32x32 and ktree:600,4 in turn, blobs:32), so the
// node parses the partition, builds, measures, answers and persists the
// record. An op ends once the build's detached persist has landed, so
// allocs/op counts the persist too. The client renders each request into
// one reused buffer and reads the answer as rawClient does, so it
// allocates nothing per op. Two builds on each graph before the timer pay
// the graphs' root searches and size the workers' Builders and the pooled
// measurer.
func BenchmarkServeCold(b *testing.B) {
	eng, _, addr := benchNode(b)
	var fps [3]service.Fingerprint
	for i, spec := range [...]string{"grid:64x64", "torus:32x32", "ktree:600,4"} {
		g, _, err := cli.ParseGraph(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		if fps[i], err = eng.AddGraph(g); err != nil {
			b.Fatal(err)
		}
	}
	c := dialRaw(b, addr)
	var req []byte
	seed := int64(0)
	cold := func() {
		req = appendColdRequest(req[:0], addr, fps[seed%int64(len(fps))], seed)
		seed++
		status, body, err := c.do(req)
		if err != nil || status != http.StatusOK || len(body) == 0 {
			b.Fatalf("status %d, err %v: %s", status, err, body)
		}
		for eng.Stats().StoreWrites < uint64(seed) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	for range 2 * len(fps) {
		cold()
	}
	b.ReportAllocs()
	for b.Loop() {
		cold()
	}
}

// BenchmarkIngest is one JSON POST /v1/graphs of a cold-build catalog
// spec (grid:64x64, torus:32x32 and ktree:600,4 in turn) through the
// daemon's whole HTTP stack, on benchNode's node (as BenchmarkServeHit
// wires it): the body's decode, the spec's parse, the registration with
// its fingerprint, and the graph record's store append. Each op registers
// fresh content: with the timer stopped, a DELETE drops the graph again.
func BenchmarkIngest(b *testing.B) {
	_, _, addr := benchNode(b)
	specs := [...]string{"grid:64x64", "torus:32x32", "ktree:600,4"}
	var posts, deletes [len(specs)][]byte
	for i, spec := range specs {
		g, _, err := cli.ParseGraph(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		body := `{"spec":"` + spec + `"}`
		posts[i] = []byte("POST /v1/graphs HTTP/1.1\r\nHost: " + addr +
			"\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
		deletes[i] = []byte("DELETE /v1/graphs/" + service.FingerprintGraph(g).String() +
			" HTTP/1.1\r\nHost: " + addr + "\r\n\r\n")
	}
	c := dialRaw(b, addr)
	do := func(req []byte) {
		if status, body, err := c.do(req); err != nil || status != http.StatusOK {
			b.Fatalf("status %d, err %v: %s", status, err, body)
		}
	}
	for i := range 2 * len(specs) {
		do(posts[i%len(specs)])
		do(deletes[i%len(specs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(posts[i%len(specs)])
		b.StopTimer()
		do(deletes[i%len(specs)])
		b.StartTimer()
	}
}

// appendColdRequest appends BenchmarkServeCold's JSON request for seed on
// the graph fp, bound for addr, to b.
func appendColdRequest(b []byte, addr string, fp service.Fingerprint, seed int64) []byte {
	var buf [128]byte
	body := append(buf[:0], `{"graph":"`...)
	body = fp.Append(body)
	body = append(body, `","partition":"blobs:32","seed":`...)
	body = strconv.AppendInt(body, seed, 10)
	body = append(body, '}')
	b = append(b, "POST /v1/shortcuts HTTP/1.1\r\nHost: "...)
	b = append(b, addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// hitGraph is the graph BenchmarkServeHit's keys are on.
func hitGraph(tb testing.TB) *graph.Graph {
	g, _, err := cli.ParseGraph("grid:16x16", 0)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// hitKey is the key of BenchmarkServeHit's request for seed on g.
func hitKey(tb testing.TB, g *graph.Graph, fp service.Fingerprint, seed int64) service.Fingerprint {
	parts, err := cli.ParsePartition(g, "blobs:16", seed)
	if err != nil {
		tb.Fatal(err)
	}
	return service.ShortcutKey(fp, parts, shortcut.Options{})
}

// warmHit renders BenchmarkServeHit's JSON and binary requests for seed
// to addr, and sends the JSON one through c, so that key is built and
// measured before the timed loops, then waits until st holds its record.
func warmHit(tb testing.TB, c *rawClient, addr string, fp, key service.Fingerprint, seed int64,
	st *store.Store) (jsonReq, binReq []byte) {

	body, err := json.Marshal(shortcutRequest{Graph: fp.String(), Partition: "blobs:16", Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	jsonReq = rawRequest(addr, "application/json", "", body)
	frame := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: "blobs:16", Seed: seed})
	binReq = rawRequest(addr, wire.ContentType, wire.ContentType, frame)
	if status, body, err := c.do(jsonReq); err != nil || status != http.StatusOK {
		tb.Fatalf("warm-up: status %d, err %v: %s", status, err, body)
	}
	for {
		if _, ok, err := st.ShortcutPayload(key); err != nil {
			tb.Fatal(err)
		} else if ok {
			return jsonReq, binReq
		}
		time.Sleep(time.Millisecond)
	}
}

// relayRequests starts a two-node cluster holding g and warms
// BenchmarkServeHit's four keys on their owners. It returns, for each
// key, a client of the node that does not own it and the key's JSON and
// binary requests to that node.
func relayRequests(b *testing.B) (clients [4]*rawClient, jsonReqs, binReqs [4][]byte) {
	g := hitGraph(b)
	nodes := newNodeCluster(b, 2)
	var fp service.Fingerprint
	for _, n := range nodes {
		var err error
		if fp, err = n.eng.AddGraph(g); err != nil {
			b.Fatal(err)
		}
	}
	byAddr := make(map[string]*rawClient)
	for i := range clients {
		seed := int64(i + 1)
		key := hitKey(b, g, fp, seed)
		owner, entry := nodes[0], nodes[1]
		if addr, _ := owner.cl.Owner(key); addr != owner.addr {
			owner, entry = entry, owner
		}
		if byAddr[entry.addr] == nil {
			byAddr[entry.addr] = dialRaw(b, entry.addr)
		}
		clients[i] = byAddr[entry.addr]
		jsonReqs[i], binReqs[i] = warmHit(b, clients[i], entry.addr, fp, key, seed, owner.st)
	}
	return clients, jsonReqs, binReqs
}
