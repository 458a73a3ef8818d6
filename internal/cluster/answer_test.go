package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/wire"
)

// binaryAnswer is an owner's warm binary shortcut answer as net/http's
// server writes it.
const binaryAnswer = "HTTP/1.1 200 OK\r\n" +
	"Content-Length: 8\r\n" +
	"Content-Type: application/x-locshort\r\n" +
	"Date: Sun, 18 Oct 2026 03:00:00 GMT\r\n" +
	"X-Locshort-Build-Ns: 1250000\r\n" +
	"X-Locshort-Graph: c6a4a7935bd1e995\r\n" +
	"X-Locshort-Key: 5bd1e9955bd1e995\r\n" +
	"X-Locshort-Served-By: 127.0.0.1:2\r\n" +
	"X-Locshort-Source: cache\r\n" +
	"\r\n" +
	"\x02\x00\xa5\xa5\r\n\x00\xff"

// jsonAnswer is the same answer in JSON.
const jsonAnswer = "HTTP/1.1 200 OK\r\n" +
	"Content-Type: application/json\r\n" +
	"X-Locshort-Source: cache\r\n" +
	"Date: Sun, 18 Oct 2026 03:00:00 GMT\r\n" +
	"Content-Length: 49\r\n" +
	"\r\n" +
	`{"shortcut":"5bd1e9955bd1e995","source":"cache"}` + "\n"

// okAnswer is a short answer that a kept connection could read next.
const okAnswer = "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 21\r\n\r\n" +
	`{"error":"not found"}`

// answerCases are peer answers, each with what readAnswer must make of
// it: the status, body and keep flag of an accepted one, and then the
// status of the next answer on its kept connection; the error of a
// refused one. FuzzReadAnswer starts from them.
var answerCases = []struct {
	name   string
	in     string
	status int
	body   string
	keep   bool
	then   int
	err    error
}{
	{name: "binary", in: binaryAnswer, status: 200, body: "\x02\x00\xa5\xa5\r\n\x00\xff", keep: true},
	{name: "json", in: jsonAnswer, status: 200, body: `{"shortcut":"5bd1e9955bd1e995","source":"cache"}` + "\n", keep: true},
	{name: "chunked with a trailer, then an answer", in: "HTTP/1.1 200 OK\r\nTrailer: X-Checksum\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\nX-Checksum: 1\r\n\r\n" + okAnswer,
		status: 200, body: "hello world", keep: true, then: 404},
	{name: "chunked, then an answer", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3\r\nabc\r\n0\r\n\r\n" + okAnswer, status: 200, body: "abc", keep: true, then: 404},
	{name: "no content", in: "HTTP/1.1 204 No Content\r\n\r\n" + okAnswer, status: 204, keep: true, then: 404},
	{name: "connection close", in: "HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\nok" +
		okAnswer, status: 200, body: "ok"},
	{name: "HTTP/1.0", in: "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok"},
	{name: "read until close", in: "HTTP/1.1 500 Internal Server Error\r\n\r\nuntil the peer closes",
		status: 500, body: "until the peer closes"},
	{name: "equal duplicate Content-Length", in: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length:  2 \r\n\r\nok",
		status: 200, body: "ok", keep: true},
	{name: "reason phrase omitted", in: "HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok", keep: true},

	{name: "1xx status", in: "HTTP/1.1 100 Continue\r\n\r\n" + okAnswer, err: errStatusLine},
	{name: "4-digit status", in: "HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\nok", err: errStatusLine},
	{name: "2-digit status", in: "HTTP/1.1 20 OK\r\nContent-Length: 2\r\n\r\nok", err: errStatusLine},
	{name: "HTTP/2.0", in: "HTTP/2.0 200 OK\r\nContent-Length: 2\r\n\r\nok", err: errStatusLine},
	{name: "bare LF", in: "HTTP/1.1 200 OK\nContent-Length: 2\n\nok", err: errStatusLine},
	{name: "unequal duplicate Content-Length", in: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!", err: errContentLength},
	{name: "signed Content-Length", in: "HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello", err: errContentLength},
	{name: "empty Content-Length", in: "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n", err: errContentLength},
	{name: "Content-Length past 2^63", in: "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\n", err: errContentLength},
	{name: "gzip transfer coding", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n3\r\nabc\r\n0\r\n\r\n", err: errFraming},
	{name: "chunked beside Content-Length", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n" +
		"3\r\nabc\r\n0\r\n\r\n", err: errFraming},
	{name: "chunked on HTTP/1.0", in: "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", err: errFraming},
	{name: "Content-Length as a trailer field", in: "HTTP/1.1 200 OK\r\nTrailer: Content-Length\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nContent-Length: 3\r\n\r\n", err: errFraming},
	{name: "body on a 304", in: "HTTP/1.1 304 Not Modified\r\nContent-Length: 2\r\n\r\nok", err: errFraming},
	{name: "control character in a kept value", in: "HTTP/1.1 200 OK\r\nX-Locshort-Source: ca\x01che\r\nContent-Length: 2\r\n\r\nok", err: wire.ErrHeaderLine},
	{name: "control character in another value", in: "HTTP/1.1 200 OK\r\nX-Other: \x7f\r\nContent-Length: 2\r\n\r\nok", err: wire.ErrHeaderLine},
	{name: "folded line", in: "HTTP/1.1 200 OK\r\nX-Locshort-Source: cache\r\n forward\r\nContent-Length: 2\r\n\r\nok", err: wire.ErrHeaderLine},
	{name: "no colon", in: "HTTP/1.1 200 OK\r\nX-Locshort-Source cache\r\nContent-Length: 2\r\n\r\nok", err: wire.ErrHeaderLine},
	{name: "space before the colon", in: "HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\nok", err: wire.ErrHeaderLine},
	{name: "65 header lines", in: "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: 1\r\n", 64) +
		"Content-Length: 2\r\n\r\nok", err: wire.ErrHeaderTooLong},
	{name: "line longer than the buffer", in: "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", 4096) +
		"\r\nContent-Length: 2\r\n\r\nok", err: wire.ErrLongLine},
	{name: "trailer longer than the buffer", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n" +
		strings.Repeat("X-Pad: "+strings.Repeat("a", 1000)+"\r\n", 5) + "\r\n", err: wire.ErrHeaderTooLong},
	{name: "body shorter than declared", in: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok", err: errAnswerShort},
	{name: "body over the limit", in: "HTTP/1.1 200 OK\r\n\r\n" + strings.Repeat("a", answerLimit+1), err: errAnswerTooLong},
	{name: "chunked body over the limit", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"1001\r\n" + strings.Repeat("a", answerLimit+1) + "\r\n0\r\n\r\n", err: errAnswerTooLong},
	{name: "header cut short", in: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", err: io.ErrUnexpectedEOF},
	{name: "empty", in: "", err: io.ErrUnexpectedEOF},
}

// answerLimit is the body limit the answer tests read with.
const answerLimit = 1 << 12

// TestReadAnswer: readAnswer accepts each well-formed answer with its
// status, body and keep flag, reads on to the next answer on a kept
// connection, and refuses each malformed one with its own error, which
// exchange wraps with the peer's name. A binary answer keeps its seven
// values.
func TestReadAnswer(t *testing.T) {
	for _, tc := range answerCases {
		br := bufio.NewReader(strings.NewReader(tc.in))
		a, err := readAnswer(br, answerLimit)
		switch {
		case tc.err != nil:
			if !errors.Is(err, tc.err) {
				t.Errorf("%s: status %d, err %v; want %v", tc.name, a.status, err, tc.err)
			}
			continue
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if a.status != tc.status || string(a.body) != tc.body || a.keep != tc.keep {
			t.Errorf("%s: status %d, body %q, keep %v; want %d, %q, %v", tc.name, a.status, a.body, a.keep,
				tc.status, tc.body, tc.keep)
		}
		if tc.then != 0 {
			if next, err := readAnswer(br, answerLimit); err != nil || next.status != tc.then {
				t.Errorf("%s: next answer: status %d, err %v; want %d", tc.name, next.status, err, tc.then)
			}
		}
	}

	a, err := readAnswer(bufio.NewReader(strings.NewReader(binaryAnswer)), answerLimit)
	if err != nil {
		t.Fatal(err)
	}
	want := Header{"application/x-locshort", "8", "5bd1e9955bd1e995", "c6a4a7935bd1e995", "cache",
		"127.0.0.1:2", "1250000"}
	if a.header != want {
		t.Errorf("kept values %q, want %q", a.header, want)
	}
	if got := a.header.Get("X-Locshort-Served-By"); got != "127.0.0.1:2" {
		t.Errorf("Get(X-Locshort-Served-By) = %q", got)
	}
}

// TestReadAnswerAllocs: a binary answer's header costs one allocation,
// the string its kept values share, and its body one more.
func TestReadAnswerAllocs(t *testing.T) {
	r := strings.NewReader(binaryAnswer)
	br := bufio.NewReader(r)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(binaryAnswer)
		br.Reset(r)
		if _, err := readAnswer(br, answerLimit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("readAnswer: %v allocs per binary answer, want at most 2", allocs)
	}
}

// FuzzReadAnswer feeds arbitrary bytes to readAnswer as a peer's answers.
// It must never panic or return a body over its limit, and whatever it
// accepts, net/http's ReadResponse plus a full body read must accept
// too, with the same status, kept values and body, and without closing a
// connection readAnswer keeps. On a kept connection the next answer is
// compared the same way.
func FuzzReadAnswer(f *testing.F) {
	for _, tc := range answerCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ours := bufio.NewReader(bytes.NewReader(in))
		theirs := bufio.NewReader(bytes.NewReader(in))
		for i := 0; i < 3; i++ {
			a, err := readAnswer(ours, answerLimit)
			if err != nil {
				return
			}
			if len(a.body) > answerLimit {
				t.Fatalf("answer %d: a %d-byte body over the %d-byte limit", i, len(a.body), answerLimit)
			}
			resp, err := http.ReadResponse(theirs, nil)
			if err != nil {
				t.Fatalf("answer %d: accepted, but net/http refuses it: %v", i, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("answer %d: accepted, but net/http fails its body: %v", i, err)
			}
			if a.status != resp.StatusCode || !bytes.Equal(a.body, body) {
				t.Fatalf("answer %d: status %d, body %q; net/http reads %d, %q", i, a.status, a.body, resp.StatusCode, body)
			}
			for j, name := range AnswerHeaders {
				if got, want := a.header[j], resp.Header.Get(name); got != want {
					t.Fatalf("answer %d: %s %q; net/http reads %q", i, name, got, want)
				}
			}
			if a.keep && resp.Close {
				t.Fatalf("answer %d: kept a connection net/http closes", i)
			}
			if !a.keep {
				return
			}
		}
	})
}

// TestTransportChunkedAnswersKeepConnection: three calls on one pooled
// connection, a chunked answer with a trailer, one without, then one
// with a Content-Length, all succeed on a single dial. A trailer left
// unread would be parsed as the next answer.
func TestTransportChunkedAnswersKeepConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/length" {
			w.Header().Set("Content-Length", "6")
			io.WriteString(w, "length")
			return
		}
		if r.URL.Path == "/trailer" {
			w.Header().Set("Trailer", "X-Checksum")
		}
		// A flush before the handler ends forces chunked encoding.
		io.WriteString(w, "chunked")
		w.(http.Flusher).Flush()
		io.WriteString(w, r.URL.Path)
		w.Header().Set("X-Checksum", "1")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	peer := strings.TrimPrefix(srv.URL, "http://")
	cl := newPeerOf(t, peer, Config{})

	for _, tc := range []struct{ path, want string }{
		{"/trailer", "chunked/trailer"}, {"/chunked", "chunked/chunked"}, {"/length", "length"},
	} {
		status, _, body, err := cl.exchange(t.Context(), 5*time.Second, http.MethodGet, peer, tc.path, nil, 1<<10)
		if err != nil || status != http.StatusOK || string(body) != tc.want {
			t.Fatalf("%s: status %d, body %q, err %v; want 200 and %q", tc.path, status, body, err, tc.want)
		}
		if got := idleConns(cl, peer); got != 1 {
			t.Fatalf("%s: %d idle connections, want 1", tc.path, got)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("the peer saw %d dials, want 1", n)
	}
}
