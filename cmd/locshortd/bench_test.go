package main

import (
	"bufio"
	"bytes"
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
// under -quiet), behind a loopback http.Server. Four warm grid:16x16
// blobs:16 keys are asked for in turn, each record already in the store,
// by a rawClient, so allocs/op is net/http's server work plus the
// handler's own.
func BenchmarkServeHit(b *testing.B) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(128)
	st, err := store.OpenBackend(store.KindSegment, b.TempDir(), store.Options{Obs: reg})
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	b.Cleanup(func() {
		hs.Close()
		srv.mgr.Close()
		eng.Close()
		st.Close()
	})
	addr := ln.Addr().String()

	g, _, err := cli.ParseGraph("grid:16x16", 0)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := eng.AddGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	c := dialRaw(b, addr)
	var jsonReqs, binReqs [4][]byte
	for i := range jsonReqs {
		seed := int64(i + 1)
		body, err := json.Marshal(shortcutRequest{Graph: fp.String(), Partition: "blobs:16", Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		jsonReqs[i] = rawRequest(addr, "application/json", "", body)
		frame := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: "blobs:16", Seed: seed})
		binReqs[i] = rawRequest(addr, wire.ContentType, wire.ContentType, frame)
		// Build, measure and persist the key before the timed loops.
		if status, body, err := c.do(jsonReqs[i]); err != nil || status != http.StatusOK {
			b.Fatalf("warm-up: status %d, err %v: %s", status, err, body)
		}
		parts, err := cli.ParsePartition(g, "blobs:16", seed)
		if err != nil {
			b.Fatal(err)
		}
		key := service.ShortcutKey(fp, parts, shortcut.Options{})
		for {
			if _, ok, err := st.ShortcutPayload(key); err != nil {
				b.Fatal(err)
			} else if ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, enc := range []struct {
		name string
		reqs [4][]byte
	}{{"json", jsonReqs}, {"binary", binReqs}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				status, body, err := c.do(enc.reqs[i%len(enc.reqs)])
				if err != nil || status != http.StatusOK || len(body) == 0 {
					b.Fatalf("status %d, %d bytes, err %v", status, len(body), err)
				}
				i++
			}
		})
	}
}
