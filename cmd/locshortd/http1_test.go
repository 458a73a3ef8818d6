package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"locshort/internal/obs"
)

// testServer serves a handler through the daemon's connection loop on a
// loopback port, as main serves the API. Every HTTP-level test of the
// daemon stands it up where it would stand up an httptest.Server.
type testServer struct {
	URL      string
	Listener net.Listener
	Handler  http.Handler
	srv      *http1Server
	once     sync.Once
}

// serveLoop starts a testServer for h on a free loopback port; the test
// closes it.
func serveLoop(tb testing.TB, h http.Handler) *testServer {
	tb.Helper()
	return serveLoopAt(tb, "127.0.0.1:0", h)
}

// serveLoopAt starts a testServer for h listening on addr.
func serveLoopAt(tb testing.TB, addr string, h http.Handler) *testServer {
	tb.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	ts := &testServer{URL: "http://" + ln.Addr().String(), Listener: ln, Handler: h, srv: newHTTP1Server(h, nil, nil)}
	go func() { _ = ts.srv.Serve(ln) }() // http.ErrServerClosed once Close runs
	return ts
}

// Close shuts the loop down, waiting for the answers in progress, and
// drops the default client's idle connections to it. Calls after the
// first do nothing.
func (ts *testServer) Close() {
	ts.once.Do(func() {
		_ = ts.srv.Shutdown(context.Background())
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	})
}

// fakeConn is a connection whose client sent in and reads whatever the
// loop writes into out. Deadlines are no-ops, so the loop reads in to
// its end.
type fakeConn struct {
	net.Conn // nil: the loop calls only the methods below
	in       *bytes.Reader
	out      bytes.Buffer
}

func (f *fakeConn) Read(p []byte) (int, error)        { return f.in.Read(p) }
func (f *fakeConn) Write(p []byte) (int, error)       { return f.out.Write(p) }
func (f *fakeConn) Close() error                      { return nil }
func (f *fakeConn) RemoteAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (f *fakeConn) SetReadDeadline(_ time.Time) error { return nil }

// seenRequest is what a handler saw of one request.
type seenRequest struct {
	method, target, host string
	url                  url.URL
	header               http.Header
	te                   []string
	length               int64
	body                 []byte
	err                  error // reading the body
	close                bool
}

// serveBytes serves in as one connection's bytes through the loop, with
// a handler that reads each body to its end and answers 200. It returns
// what the handler saw of each request and what the loop wrote back.
func serveBytes(in []byte) ([]seenRequest, []byte) {
	var seen []seenRequest
	s := newHTTP1Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		seen = append(seen, seenRequest{method: r.Method, target: r.RequestURI, host: r.Host, url: *r.URL,
			header: r.Header.Clone(), te: r.TransferEncoding, length: r.ContentLength, body: body, err: err,
			close: r.Close})
	}), nil, nil)
	fc := &fakeConn{in: bytes.NewReader(in)}
	c := newConn(s, fc)
	// A client that sent in stays connected: the watch reads nothing,
	// where the end of in would read as a client gone.
	c.watch = func() { c.watchDone <- struct{}{} }
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	c.serve()
	return seen, fc.out.Bytes()
}

// requestCases are request bytes, each with what the loop must make of
// its first request: the method, target, body and kept connection of an
// accepted one, with the number of requests it serves; the status of a
// refused one. FuzzReadRequest starts from them.
var requestCases = []struct {
	name   string
	in     string
	method string
	target string
	body   string
	keep   bool
	served int
	code   int
}{
	{name: "get", in: "GET /readyz HTTP/1.1\r\nHost: a\r\n\r\n", method: "GET", target: "/readyz", keep: true, served: 1},
	{name: "post", in: "POST /v1/shortcuts HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\n" +
		"Content-Length: 5\r\n\r\nhello", method: "POST", target: "/v1/shortcuts", body: "hello", keep: true, served: 1},
	{name: "pipelined", in: "POST /a HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nokGET /b?x=1 HTTP/1.1\r\nHost: a\r\n\r\n",
		method: "POST", target: "/a", body: "ok", keep: true, served: 2},
	{name: "chunked with a trailer", in: "POST /graphs HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\nX-T: 1\r\n\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
		method: "POST", target: "/graphs", body: "hello world", keep: true, served: 2},
	{name: "HTTP/1.0", in: "GET / HTTP/1.0\r\n\r\nGET / HTTP/1.0\r\n\r\n", method: "GET", target: "/", served: 1},
	{name: "HTTP/1.0 keep-alive", in: "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\nGET / HTTP/1.0\r\n\r\n",
		method: "GET", target: "/", keep: true, served: 2},
	{name: "connection close", in: "GET / HTTP/1.1\r\nHost: a\r\nConnection: keep-alive, close\r\n\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
		method: "GET", target: "/", served: 1},
	{name: "escaped path and query", in: "GET /v1/jobs/%41b?wait=5s HTTP/1.1\r\nHost: a\r\n\r\n",
		method: "GET", target: "/v1/jobs/%41b?wait=5s", keep: true, served: 1},
	{name: "unusual method", in: "PATCH /x HTTP/1.1\r\nHost: a\r\n\r\n", method: "PATCH", target: "/x", keep: true, served: 1},
	{name: "equal repeated Content-Length", in: "PUT /p HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\ncontent-length:  2 \r\n\r\nok",
		method: "PUT", target: "/p", body: "ok", keep: true, served: 1},
	{name: "repeated field and Pragma", in: "GET / HTTP/1.1\r\nHost: a\r\nAccept: a\r\naccept: b\r\nPragma: no-cache\r\n" +
		"X-Odd-Name_1: \t v\x80 \r\n\r\n", method: "GET", target: "/", keep: true, served: 1},
	{name: "100-continue", in: "POST /e HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc",
		method: "POST", target: "/e", body: "abc", keep: true, served: 1},
	{name: "empty Host", in: "GET / HTTP/1.1\r\nHost:\r\n\r\n", method: "GET", target: "/", keep: true, served: 1},

	{name: "bare LF", in: "GET / HTTP/1.1\nHost: a\n\n", code: 400},
	{name: "bare LF in the header", in: "GET / HTTP/1.1\r\nHost: a\n\r\n", code: 400},
	{name: "no target", in: "GET HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "absolute-form target", in: "GET http://a/ HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "asterisk-form target", in: "OPTIONS * HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "method not a token", in: "G(T / HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "control character in the target", in: "GET /a\x7f HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "bad escape", in: "GET /a%zz HTTP/1.1\r\nHost: a\r\n\r\n", code: 400},
	{name: "HTTP/2.0", in: "GET / HTTP/2.0\r\nHost: a\r\n\r\n", code: 505},
	{name: "HTTP/1.2", in: "GET / HTTP/1.2\r\nHost: a\r\n\r\n", code: 505},
	{name: "malformed version", in: "GET / HTTP/1.1 x\r\nHost: a\r\n\r\n", code: 400},
	{name: "missing Host", in: "GET / HTTP/1.1\r\n\r\n", code: 400},
	{name: "two Hosts", in: "GET / HTTP/1.1\r\nHost: a\r\nHost: a\r\n\r\n", code: 400},
	{name: "malformed Host", in: "GET / HTTP/1.1\r\nHost: a b\r\n\r\n", code: 400},
	{name: "folded line", in: "GET / HTTP/1.1\r\nHost: a\r\nAccept: a\r\n b\r\n\r\n", code: 400},
	{name: "space before the colon", in: "GET / HTTP/1.1\r\nHost : a\r\n\r\n", code: 400},
	{name: "control character in a value", in: "GET / HTTP/1.1\r\nHost: a\r\nAccept: a\x01\r\n\r\n", code: 400},
	{name: "signed Content-Length", in: "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: +2\r\n\r\nok", code: 400},
	{name: "unequal Content-Length", in: "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\nok", code: 400},
	{name: "gzip transfer coding", in: "POST / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: gzip\r\n\r\n", code: 501},
	{name: "two Transfer-Encodings", in: "POST / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", code: 501},
	{name: "chunked beside Content-Length", in: "POST / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n" +
		"Content-Length: 5\r\n\r\n0\r\n\r\n", code: 400},
	{name: "chunked on HTTP/1.0", in: "POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", code: 400},
	{name: "Content-Length as a trailer", in: "POST / HTTP/1.1\r\nHost: a\r\nTrailer: Content-Length\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n0\r\nContent-Length: 1\r\n\r\n", code: 400},
	{name: "65 header lines", in: "GET / HTTP/1.1\r\nHost: a\r\n" + strings.Repeat("X-Pad: 1\r\n", 64) + "\r\n", code: 431},
	{name: "header line longer than the buffer", in: "GET / HTTP/1.1\r\nHost: a\r\nX-Pad: " +
		strings.Repeat("a", connBufSize) + "\r\n\r\n", code: 431},
	{name: "request line longer than the buffer", in: "GET /" + strings.Repeat("a", connBufSize) + " HTTP/1.1\r\n\r\n", code: 431},
	{name: "unknown expectation", in: "POST / HTTP/1.1\r\nHost: a\r\nExpect: 200-ok\r\nContent-Length: 2\r\n\r\nok", code: 417},
	{name: "100-continue without a body", in: "GET / HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\n\r\n", code: 417},
	{name: "head cut short", in: "GET / HTTP/1.1\r\nHost: a\r\n"},
	{name: "empty"},
}

// TestReadRequest: the loop serves each accepted request with its method,
// target and body, keeps or closes the connection as the case says, and
// refuses each malformed one with its status, a Connection: close and
// nothing served. A head cut short is closed without an answer.
func TestReadRequest(t *testing.T) {
	for _, tc := range requestCases {
		seen, out := serveBytes([]byte(tc.in))
		switch {
		case tc.code != 0:
			want := fmt.Sprintf("HTTP/1.1 %d ", tc.code)
			if len(seen) != 0 || !bytes.HasPrefix(out, []byte(want)) || !bytes.Contains(out, []byte("\r\nConnection: close\r\n")) {
				t.Errorf("%s: served %d, answered %.40q; want a %d refusal", tc.name, len(seen), out, tc.code)
			}
			continue
		case tc.served == 0:
			if len(seen) != 0 || len(out) != 0 {
				t.Errorf("%s: served %d, answered %q; want a silent close", tc.name, len(seen), out)
			}
			continue
		}
		if len(seen) != tc.served {
			t.Errorf("%s: served %d requests, want %d (answered %q)", tc.name, len(seen), tc.served, out)
			continue
		}
		r := seen[0]
		if r.method != tc.method || r.target != tc.target || string(r.body) != tc.body || r.err != nil || r.close == tc.keep {
			t.Errorf("%s: %s %s body %q (err %v), close %v; want %s %s body %q, close %v", tc.name, r.method, r.target,
				r.body, r.err, r.close, tc.method, tc.target, tc.body, !tc.keep)
		}
	}
}

// FuzzReadRequest feeds arbitrary bytes to the loop as one connection's
// requests. Whatever it serves, net/http's ReadRequest plus a full body
// read must accept too, in the same order, with the same method, target,
// URL, Host, header values, framing and body, and the same decision to
// close the connection after it.
func FuzzReadRequest(f *testing.F) {
	for _, tc := range requestCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		seen, _ := serveBytes(in)
		theirs := bufio.NewReader(bytes.NewReader(in))
		for i, ours := range seen {
			if ours.err != nil {
				return // the loop read no whole body: it accepted nothing more
			}
			req, err := http.ReadRequest(theirs)
			if err != nil {
				t.Fatalf("request %d: served, but net/http refuses it: %v", i, err)
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				t.Fatalf("request %d: served, but net/http fails its body: %v", i, err)
			}
			delete(req.Header, "Host") // net/http's server drops it too
			switch {
			case ours.method != req.Method || ours.target != req.RequestURI || ours.host != req.Host:
				t.Fatalf("request %d: %s %s host %q; net/http reads %s %s host %q", i, ours.method, ours.target,
					ours.host, req.Method, req.RequestURI, req.Host)
			case ours.url != *req.URL:
				t.Fatalf("request %d: URL %#v; net/http reads %#v", i, ours.url, *req.URL)
			case !maps.EqualFunc(ours.header, req.Header, slices.Equal[[]string]):
				t.Fatalf("request %d: header %q; net/http reads %q", i, ours.header, req.Header)
			case ours.length != req.ContentLength || !slices.Equal(ours.te, req.TransferEncoding):
				t.Fatalf("request %d: length %d, coding %q; net/http reads %d, %q", i, ours.length, ours.te,
					req.ContentLength, req.TransferEncoding)
			case !bytes.Equal(ours.body, body):
				t.Fatalf("request %d: body %q; net/http reads %q", i, ours.body, body)
			case ours.close != req.Close:
				t.Fatalf("request %d: close %v; net/http decides %v", i, ours.close, req.Close)
			}
		}
	})
}

// loopConn is a raw client connection to a testServer.
type loopConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialLoop(t *testing.T, ts *testServer) *loopConn {
	t.Helper()
	nc, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &loopConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *loopConn) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatal(err)
	}
}

// answer reads one answer to a request with the given method.
func (c *loopConn) answer(method string) (*http.Response, string) {
	c.t.Helper()
	if err := c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.t.Fatalf("reading the answer: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("reading the answer body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server closed the connection: a read ends
// in EOF, not a timeout.
func (c *loopConn) closed(within time.Duration) bool {
	if err := c.nc.SetReadDeadline(time.Now().Add(within)); err != nil {
		c.t.Fatal(err)
	}
	_, err := c.br.ReadByte()
	return err == io.EOF
}

// loopHandler serves the connection test's routes: /echo answers its
// request body, POST /ignore answers without reading it, /big a body
// longer than the body buffer, /block reads its
// body and waits for its context or release, /panic and /panic-late panic before and after
// their answer begins.
// blockChans are /block's: entered when a request reaches it, release to
// answer it, canceled with its context's error if that ends first.
type blockChans struct {
	entered  chan struct{}
	release  chan struct{}
	canceled chan error
}

func loopHandler(block *blockChans) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(body)
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("POST /ignore", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ignored\n") })
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 3*connBufSize))
	})
	mux.HandleFunc("/block", func(w http.ResponseWriter, r *http.Request) {
		// The loop watches for the client going once the body is read.
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		block.entered <- struct{}{}
		select {
		case <-r.Context().Done():
			block.canceled <- r.Context().Err()
		case <-block.release:
			io.WriteString(w, "released")
		}
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Lost", "1")
		panic("handler bug")
	})
	mux.HandleFunc("/panic-late", func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 2*connBufSize))
		panic("late handler bug")
	})
	return mux
}

// TestConnectionLoop drives the loop over TCP: pipelining, chunked
// bodies in and out, 100-continue, HEAD, HTTP/1.0, Connection: close, a
// head too large, the header timeout, a client gone mid-handler, handler
// panics and a draining Shutdown.
func TestConnectionLoop(t *testing.T) {
	const host = "Host: loop\r\n"
	cases := []struct {
		name string
		run  func(t *testing.T, ts *testServer, block *blockChans)
	}{
		{"pipelined requests answered in order", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("POST /echo HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nfirst" +
				"POST /echo HTTP/1.1\r\n" + host + "Content-Length: 6\r\n\r\nsecond" +
				"GET /ok HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n")
			for _, want := range []string{"first", "second", "ok\n"} {
				if resp, body := c.answer("GET"); resp.StatusCode != 200 || body != want {
					t.Fatalf("answer %d %q, want 200 %q", resp.StatusCode, body, want)
				}
			}
			if !c.closed(time.Second) {
				t.Fatal("connection kept after Connection: close")
			}
		}},
		{"a body the handler leaves is drained", func(t *testing.T, ts *testServer, _ *blockChans) {
			// Each request goes out after the answer before it, so the
			// connection is idle while the loop waits for the next head.
			c := dialLoop(t, ts)
			for i := 0; i < 5; i++ {
				for _, req := range []string{"Content-Length: 10\r\n\r\nunread1234",
					"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"} {
					c.send("POST /ignore HTTP/1.1\r\n" + host + req)
					if resp, body := c.answer("POST"); resp.StatusCode != 200 || body != "ignored\n" || resp.Close {
						t.Fatalf("round %d: %d %q, close %v", i, resp.StatusCode, body, resp.Close)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}},
		{"chunked body with a trailer, chunked answer", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n" +
				"4\r\nchun\r\n3\r\nked\r\n0\r\nX-Sum: 7\r\n\r\n")
			if resp, body := c.answer("POST"); resp.StatusCode != 200 || body != "chunked" || resp.ContentLength != 7 {
				t.Fatalf("answer %d %q, length %d", resp.StatusCode, body, resp.ContentLength)
			}
			c.send("GET /big HTTP/1.1\r\n" + host + "\r\n")
			resp, body := c.answer("GET")
			if len(body) != 3*connBufSize || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) || resp.Close {
				t.Fatalf("big answer: %d bytes, coding %q, close %v", len(body), resp.TransferEncoding, resp.Close)
			}
		}},
		{"Expect: 100-continue", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("POST /echo HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 4\r\n\r\n")
			line, err := c.br.ReadString('\n')
			if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
				t.Fatalf("interim answer %q, err %v", line, err)
			}
			if blank, _ := c.br.ReadString('\n'); blank != "\r\n" {
				t.Fatalf("interim answer ends with %q", blank)
			}
			c.send("body")
			if resp, body := c.answer("POST"); resp.StatusCode != 200 || body != "body" {
				t.Fatalf("answer %d %q", resp.StatusCode, body)
			}
			c.send("POST /echo HTTP/1.1\r\n" + host + "Expect: something-else\r\nContent-Length: 4\r\n\r\n")
			if resp, _ := c.answer("POST"); resp.StatusCode != http.StatusExpectationFailed || !resp.Close {
				t.Fatalf("unknown expectation: %d, close %v", resp.StatusCode, resp.Close)
			}
			// A handler that answers without reading the body: the client
			// never sends it, so the loop closes instead of draining.
			c = dialLoop(t, ts)
			c.send("POST /ok HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 4\r\n\r\n")
			if resp, body := c.answer("POST"); resp.StatusCode != 200 || body != "ok\n" || !resp.Close {
				t.Fatalf("answered without reading the body: %d %q, close %v", resp.StatusCode, body, resp.Close)
			}
		}},
		{"HEAD", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("HEAD /ok HTTP/1.1\r\n" + host + "\r\nGET /ok HTTP/1.1\r\n" + host + "\r\n")
			if resp, body := c.answer("HEAD"); resp.StatusCode != 200 || body != "" || resp.ContentLength != 3 {
				t.Fatalf("HEAD: %d %q, length %d", resp.StatusCode, body, resp.ContentLength)
			}
			if resp, body := c.answer("GET"); resp.StatusCode != 200 || body != "ok\n" {
				t.Fatalf("GET after HEAD: %d %q", resp.StatusCode, body)
			}
		}},
		{"HTTP/1.0", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("GET /ok HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
			resp, body := c.answer("GET")
			if resp.ProtoMinor != 0 || body != "ok\n" || resp.Header.Get("Connection") != "keep-alive" {
				t.Fatalf("keep-alive answer: HTTP/1.%d %q, Connection %q", resp.ProtoMinor, body, resp.Header.Get("Connection"))
			}
			c.send("GET /big HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
			resp, body = c.answer("GET")
			if len(body) != 3*connBufSize || resp.TransferEncoding != nil || !resp.Close {
				t.Fatalf("unframed HTTP/1.0 answer: %d bytes, coding %q, close %v", len(body), resp.TransferEncoding, resp.Close)
			}
			c = dialLoop(t, ts)
			c.send("GET /ok HTTP/1.0\r\n\r\n")
			if resp, _ := c.answer("GET"); !resp.Close || !c.closed(time.Second) {
				t.Fatal("HTTP/1.0 without keep-alive kept its connection")
			}
		}},
		{"431 head", func(t *testing.T, ts *testServer, _ *blockChans) {
			c := dialLoop(t, ts)
			c.send("GET /ok HTTP/1.1\r\n" + host + "X-Pad: " + strings.Repeat("a", connBufSize) + "\r\n\r\n")
			if resp, _ := c.answer("GET"); resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close || !c.closed(5*time.Second) {
				t.Fatalf("oversized head: %d, close %v", resp.StatusCode, resp.Close)
			}
		}},
		{"header timeout from the head's first byte", func(t *testing.T, ts *testServer, _ *blockChans) {
			ts.srv.headerTimeout = 200 * time.Millisecond
			idle := dialLoop(t, ts)
			c := dialLoop(t, ts)
			c.send("GET /ok HTTP/1.1\r\n")
			if !c.closed(5 * time.Second) {
				t.Fatal("a head left unfinished was not closed")
			}
			if idle.closed(300 * time.Millisecond) {
				t.Fatal("an idle connection was closed: there is no idle timeout")
			}
			idle.send("GET /ok HTTP/1.1\r\n" + host + "\r\n")
			if resp, _ := idle.answer("GET"); resp.StatusCode != 200 {
				t.Fatalf("idle connection's request: %d", resp.StatusCode)
			}
		}},
		{"client gone cancels the context", func(t *testing.T, ts *testServer, block *blockChans) {
			c := dialLoop(t, ts)
			c.send("POST /block HTTP/1.1\r\n" + host + "Content-Length: 2\r\n\r\nhi")
			<-block.entered
			c.nc.Close()
			select {
			case err := <-block.canceled:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("context ended with %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the handler's context outlived its client")
			}
		}},
		{"handler panics", func(t *testing.T, ts *testServer, _ *blockChans) {
			logs := &syncBuffer{}
			ts.srv.logger = obs.NewLogger(logs)
			c := dialLoop(t, ts)
			c.send("GET /panic HTTP/1.1\r\n" + host + "\r\n")
			resp, body := c.answer("GET")
			if resp.StatusCode != 500 || !resp.Close || resp.Header.Get("X-Lost") != "" ||
				body != `{"error":"panic: handler bug"}`+"\n" || !c.closed(time.Second) {
				t.Fatalf("panic answer: %d %q, close %v, header %v", resp.StatusCode, body, resp.Close, resp.Header)
			}
			c = dialLoop(t, ts)
			c.send("GET /panic-late HTTP/1.1\r\n" + host + "\r\n")
			resp, err := http.ReadResponse(c.br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadAll(resp.Body); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("an answer cut by a panic: body read ends with %v, want io.ErrUnexpectedEOF", err)
			}
			if got, lines := ts.srv.panics.Load(), strings.Count(logs.String(), "msg=handler_panic"); got != 2 || lines != 2 {
				t.Fatalf("%d panics counted, %d logged; want 2", got, lines)
			}
			c = dialLoop(t, ts)
			c.send("GET /ok HTTP/1.1\r\n" + host + "\r\n")
			if resp, _ := c.answer("GET"); resp.StatusCode != 200 {
				t.Fatalf("after the panics: %d", resp.StatusCode)
			}
		}},
		{"Shutdown drains", func(t *testing.T, ts *testServer, block *blockChans) {
			idle := dialLoop(t, ts)
			idle.send("GET /ok HTTP/1.1\r\n" + host + "\r\n")
			idle.answer("GET")
			busy := dialLoop(t, ts)
			busy.send("GET /block HTTP/1.1\r\n" + host + "\r\n")
			<-block.entered
			done := make(chan error, 1)
			go func() { done <- ts.srv.Shutdown(context.Background()) }()
			if !idle.closed(5 * time.Second) {
				t.Fatal("Shutdown left an idle connection open")
			}
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) with a request in flight", err)
			case <-time.After(100 * time.Millisecond):
			}
			block.release <- struct{}{}
			if resp, body := busy.answer("GET"); resp.StatusCode != 200 || body != "released" {
				t.Fatalf("in-flight answer during Shutdown: %d %q", resp.StatusCode, body)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !busy.closed(time.Second) {
				t.Fatal("Shutdown left the drained connection open")
			}
			if _, err := net.Dial("tcp", ts.Listener.Addr().String()); err == nil {
				t.Fatal("the listener still accepts after Shutdown")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			block := &blockChans{entered: make(chan struct{}, 1), release: make(chan struct{}), canceled: make(chan error, 1)}
			ts := serveLoop(t, loopHandler(block))
			t.Cleanup(ts.Close)
			tc.run(t, ts, block)
		})
	}
}
