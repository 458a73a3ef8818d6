package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/cluster"
	"locshort/internal/obs"
	"locshort/internal/wire"
)

// http1Server serves the API's http.Handler over HTTP/1.1 on its own
// connection loop: one goroutine per connection, a pooled read and write
// buffer pair, and one *http.Request, URL, header map, body reader and
// ResponseWriter per connection, reset for every request. A request head
// is parsed in the connection's read buffer, and the loop accepts a subset
// of what net/http accepts (DESIGN §4.4, OPERATIONS §2): what it refuses it
// answers 400, 417, 431, 501 or 505, and closes the connection.
type http1Server struct {
	handler http.Handler
	logger  *obs.Logger
	// headerTimeout bounds a request head from its first byte:
	// readHeaderTimeout, shortened only by tests.
	headerTimeout time.Duration
	panics        atomic.Uint64

	closing atomic.Bool
	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	// wg counts the server's goroutines: each serves a connection, waits
	// in a connection's watch, or is parked as a spare.
	wg sync.WaitGroup

	// The spare goroutines (spareLoop): spare hands one a connection's
	// watch, spares counts them, and done, closed by Shutdown, ends them.
	spare  chan *conn
	spares atomic.Int32
	done   chan struct{}
}

// The loop's limits. They are constants: every client of the daemon fits
// them.
const (
	// connBufSize is each connection's read buffer, write buffer and
	// response body buffer. Every head line must fit the read buffer; a
	// body that fits the body buffer when the handler returns is sent with
	// a Content-Length, a longer one chunked.
	connBufSize = 4 << 10
	// readHeaderTimeout bounds a request head from its first byte. There
	// is no idle timeout.
	readHeaderTimeout = 10 * time.Second
	// maxDrain is how much request body the loop reads past a handler that
	// left it unread before it closes the connection instead: net/http's
	// bound.
	maxDrain = 256 << 10
	// lingerTimeout is how long a connection closed with request bytes
	// still coming keeps reading them, so the client reads the answer
	// before the close resets the connection: net/http's delay.
	lingerTimeout = 500 * time.Millisecond
	// maxSpares bounds the goroutines parked to run the next watch: one
	// per request in a handler is enough, and past that a watch starts a
	// goroutine of its own.
	maxSpares = 64
)

// newHTTP1Server serves h. With reg, recovered handler panics count in
// locshort_http_panics_total; logger (nil: the standard logger) takes
// their stacks.
func newHTTP1Server(h http.Handler, reg *obs.Registry, logger *obs.Logger) *http1Server {
	s := &http1Server{handler: h, logger: logger, headerTimeout: readHeaderTimeout, conns: make(map[*conn]struct{}),
		spare: make(chan *conn), done: make(chan struct{})}
	if reg != nil {
		reg.CounterFunc("locshort_http_panics_total",
			"Handler panics the connection loop recovered: each answered 500, or closed its connection if the answer had begun.",
			nil, func() float64 { return float64(s.panics.Load()) })
	}
	return s
}

// Serve accepts connections on ln and serves each on its own goroutine
// until Shutdown, when it returns http.ErrServerClosed; another accept
// error ends it too, after retries with backoff for temporary ones
// (EMFILE).
func (s *http1Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.closing.Load() {
		_ = ln.Close() // Shutdown may have run before ln was known
		return http.ErrServerClosed
	}
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := newConn(s, nc)
		s.mu.Lock()
		closing := s.closing.Load()
		if !closing {
			s.conns[c] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if closing {
			_ = nc.Close() // accepted as Shutdown began: never served
			c.cancel()
			c.release()
			return http.ErrServerClosed
		}
		go s.serveConn(c)
	}
}

// serveConn serves a new connection, then keeps the goroutine as a spare.
func (s *http1Server) serveConn(c *conn) {
	c.serve()
	s.spareLoop()
}

// runWatch runs c's watch on a new goroutine, then keeps the goroutine as
// a spare.
func (s *http1Server) runWatch(c *conn) {
	c.watch()
	s.spareLoop()
}

// spareLoop parks the goroutine until a watch needs one, runs it (and the
// connection after it, if the connection is handed on), and parks again,
// so a warm request starts no goroutine and, running on a stack the serve
// path has grown, grows none. The goroutine ends once maxSpares are
// parked already, or at Shutdown.
func (s *http1Server) spareLoop() {
	defer s.wg.Done()
	for s.spares.Add(1) <= maxSpares {
		select {
		case c := <-s.spare:
			s.spares.Add(-1)
			c.watch()
		case <-s.done:
			s.spares.Add(-1)
			return
		}
	}
	s.spares.Add(-1)
}

// Shutdown stops accepting, closes idle connections, ends the spare
// goroutines, and waits for the active connections to finish their
// answers. If ctx ends first, it closes every connection left and returns
// ctx's error.
func (s *http1Server) Shutdown(ctx context.Context) error {
	if !s.closing.Swap(true) {
		close(s.done)
	}
	s.mu.Lock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.closeIfIdle()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close() // its goroutine ends on the failed read or write
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// A connection's state: idle between requests (Shutdown may close it),
// active from the first byte of a head to the end of its answer, closed
// once either side claimed the close.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// conn is one connection and everything its requests reuse.
type conn struct {
	srv    *http1Server
	nc     net.Conn
	state  atomic.Int32
	ctx    context.Context // every request's, canceled when the client goes
	cancel context.CancelFunc
	bufs   *connBufs
	br     *bufio.Reader
	bw     *bufio.Writer

	// blank holds ctx and RemoteAddr; it is copied over *req before each
	// request, which resets every other field.
	blank    http.Request
	req      *http.Request
	url      url.URL
	hdr      http.Header
	vals     [wire.MaxFields]string // hdr's values; each key slices one
	body     body
	w        response
	wbuf     []byte // the response body until the head is sent
	head     []byte // the status line and header block
	keys     []string
	strs     [16]string // recent strings of this connection's heads
	nextStr  int
	dateSec  int64
	date     [len(http.TimeFormat)]byte
	panicked any

	// expect100 is set for a request that expects 100-continue, and
	// continueOwed while the 100 Continue is owed to the first body read;
	// closeAfter once the connection is to close after this answer, and
	// linger when request bytes may still be coming then.
	expect100    bool
	continueOwed bool
	closeAfter   bool
	linger       bool

	// The background read: rd is the read buffer's source, the
	// connection after any byte the background read took. watchState
	// says whether its read is pending, has ended, or waits for the next
	// head on a connection handed to it.
	rd         connReader
	watch      func() // c.backgroundRead, bound once
	watchState atomic.Int32
	watchDone  chan struct{}
	handling   bool // the handler runs: the only time the watch may start
	watching   bool
	gone       bool // the client closed while a handler ran
}

// connBufs are the buffers a connection takes from the pool and returns
// when it closes.
type connBufs struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	wbuf []byte
	head []byte
}

var connBufPool = sync.Pool{New: func() any {
	return &connBufs{
		br:   bufio.NewReaderSize(nil, connBufSize),
		bw:   bufio.NewWriterSize(nil, connBufSize),
		wbuf: make([]byte, 0, connBufSize),
		head: make([]byte, 0, 512),
	}
}}

// maxPooledHead keeps a head grown by a handler with huge headers out of
// the pool.
const maxPooledHead = 16 << 10

// connReader is the read buffer's source: the connection, after the byte
// the background read took, if it took one.
type connReader struct {
	nc   net.Conn
	held bool
	b    [1]byte
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.held && len(p) > 0 {
		p[0] = r.b[0]
		r.held = false
		return 1, nil
	}
	return r.nc.Read(p)
}

func newConn(s *http1Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, hdr: make(http.Header), watchDone: make(chan struct{}, 1)}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.bufs = connBufPool.Get().(*connBufs)
	c.br, c.bw, c.wbuf, c.head = c.bufs.br, c.bufs.bw, c.bufs.wbuf[:0], c.bufs.head[:0]
	c.rd.nc = nc
	c.br.Reset(&c.rd)
	c.bw.Reset(nc)
	c.blank = *(&http.Request{RemoteAddr: nc.RemoteAddr().String()}).WithContext(c.ctx)
	c.req = new(http.Request)
	c.w = response{c: c, hdr: make(http.Header)}
	c.body.c = c
	c.watch = c.backgroundRead
	return c
}

// serve runs the connection's requests, one at a time, until the client
// goes, an answer closes it, or Shutdown does. An answer that leaves the
// watch's read pending hands the connection to the watch's goroutine,
// whose read is then the wait for the next head, and serve returns: an
// idle connection holds one goroutine either way, and the one serve ran
// on becomes a spare.
func (c *conn) serve() {
	for {
		// Idle until the first byte of the next head.
		if _, err := c.br.Peek(1); err != nil {
			break
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			break
		}
		if !c.serveOne() {
			break
		}
		c.state.Store(connIdle)
		if c.srv.closing.Load() && c.state.CompareAndSwap(connIdle, connClosed) {
			break
		}
		if c.handOff() {
			return
		}
		if c.gone {
			break
		}
	}
	c.stopWatch()
	c.close()
}

// closeIfIdle closes c if it waits between requests; Shutdown calls it.
func (c *conn) closeIfIdle() {
	if c.state.CompareAndSwap(connIdle, connClosed) {
		_ = c.nc.Close() // serve's Peek fails and the goroutine ends
	}
}

// close ends the connection: it lingers if request bytes may still be
// coming, closes, cancels the context and returns the buffers.
func (c *conn) close() {
	if c.linger {
		if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite() // the client reads the answer, then EOF
		}
		if c.nc.SetReadDeadline(time.Now().Add(lingerTimeout)) == nil {
			_, _ = io.Copy(io.Discard, c.nc)
		}
	}
	_ = c.nc.Close() // nothing is left to tell the client
	c.cancel()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.release()
}

// release returns the connection's buffers to the pool.
func (c *conn) release() {
	c.br.Reset(nil)
	c.bw.Reset(nil)
	c.bufs.wbuf = c.wbuf[:0]
	if cap(c.head) <= maxPooledHead {
		c.bufs.head = c.head[:0]
	}
	connBufPool.Put(c.bufs)
	c.bufs, c.br, c.bw = nil, nil, nil
}

// serveOne reads a request, runs the handler and answers; it reports
// whether the connection serves another.
func (c *conn) serveOne() bool {
	if c.nc.SetReadDeadline(time.Now().Add(c.srv.headerTimeout)) != nil {
		return false
	}
	code, err := c.readRequest()
	if err != nil || c.nc.SetReadDeadline(time.Time{}) != nil {
		// The client went, or ran past the header timeout: net/http
		// closes such a connection without an answer too.
		return false
	}
	if code != 0 {
		c.refuse(code)
		return false
	}
	r := c.req
	c.w.reset()
	c.closeAfter, c.linger, c.panicked, c.expect100 = r.Close, false, nil, false
	if e := r.Header["Expect"]; len(e) > 0 && e[0] != "" {
		// As net/http: 100-continue on an HTTP/1.1 request with a body is
		// answered on the first body read; any other expectation is not
		// met.
		if !strings.EqualFold(e[0], "100-continue") || r.ProtoMinor != 1 || r.ContentLength == 0 {
			c.refuse(http.StatusExpectationFailed)
			return false
		}
		c.expect100, c.continueOwed = true, true
	}
	c.handling = true
	if r.ContentLength == 0 {
		c.startWatch()
	}
	c.runHandler()
	c.handling = false
	c.continueOwed = false
	keep := false
	// A panic after the answer began leaves it cut short, and the
	// connection closes.
	if c.panicked == nil || !c.w.committed {
		if c.panicked != nil {
			c.answerPanic()
		}
		keep = c.finish()
	}
	if !keep && r.ContentLength != 0 && !c.body.eof {
		c.linger = true
	}
	if keep && c.br.Buffered() > 0 {
		// The next head is here already, so it is read at once: the
		// watch's read ends now.
		c.stopWatch()
		keep = !c.gone
	}
	return keep
}

// runHandler runs the handler on the request; a panic is recovered into
// c.panicked.
func (c *conn) runHandler() {
	defer func() {
		if v := recover(); v != nil {
			c.panicked = v
			c.handlerPanicked(v)
		}
	}()
	c.srv.handler.ServeHTTP(&c.w, c.req)
}

// handlerPanicked logs and counts a handler panic, unless the handler
// aborted on purpose with http.ErrAbortHandler.
func (c *conn) handlerPanicked(v any) {
	c.closeAfter = true
	if v == http.ErrAbortHandler {
		return
	}
	s := c.srv
	s.panics.Add(1)
	stack := debug.Stack()
	if s.logger != nil {
		s.logger.Error("handler_panic", "method", c.req.Method, "path", c.req.URL.Path,
			"err", fmt.Sprint(v), "stack", string(stack))
		return
	}
	log.Printf("locshortd: panic serving %s %s: %v\n%s", c.req.Method, c.req.URL.Path, v, stack)
}

// answerPanic replaces whatever a panicked handler left unsent with a 500
// naming the panic, as the daemon's own error envelope does.
func (c *conn) answerPanic() {
	body, err := json.Marshal(map[string]string{"error": fmt.Sprint("panic: ", c.panicked)})
	if err != nil {
		body = []byte(`{"error":"panic"}`)
	}
	c.w.reset()
	c.w.hdr["Content-Type"] = jsonContentType
	c.w.WriteHeader(http.StatusInternalServerError)
	_, _ = c.w.Write(append(body, '\n')) // into the body buffer; finish sends it
}

// finish completes the answer and flushes it; it reports whether the
// connection serves another request.
func (c *conn) finish() bool {
	w := &c.w
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !w.committed {
		w.commit(true, c.wbuf)
	} else if w.chunked {
		_, _ = c.bw.WriteString("0\r\n\r\n") // a failed write fails the Flush below
	}
	if c.req.Method != http.MethodHead && w.declared >= 0 && w.written != w.declared && bodyAllowedForStatus(w.status) {
		// A body shorter than its Content-Length leaves the client
		// waiting for the rest.
		c.closeAfter = true
	}
	if c.bw.Flush() != nil {
		return false
	}
	return !c.closeAfter
}

// refuse answers a request the loop does not accept, and closes the
// connection once the client has read the answer.
func (c *conn) refuse(code int) {
	text := strconv.Itoa(code) + " " + http.StatusText(code)
	fmt.Fprintf(c.bw, "HTTP/1.1 %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n"+
		"Content-Length: %d\r\n\r\n%s", text, len(text), text)
	if c.bw.Flush() == nil {
		c.linger = true
	}
}

// startWatch starts the background read that notices a client going away
// while its handler runs: once the request body is consumed, the next
// byte on the connection is the next request's, held for it, or the end
// of the connection, which cancels the context. A body the loop drains
// after the handler starts none: the next head is read right after.
// The watch runs on a spare goroutine, one whose stack a connection has
// grown already, and starts a goroutine only when no spare is parked:
// then it allocates that goroutine's closure, and otherwise nothing. When
// the answer keeps the connection and no byte of the next head is
// buffered, the read stays pending as the wait for that head (handOff);
// only a pipelined head or a close ends it (stopWatch), and that read
// returns one error value.
func (c *conn) startWatch() {
	if !c.handling || c.watching || c.rd.held {
		return
	}
	c.watching = true
	c.watchState.Store(watchReading)
	select {
	case c.srv.spare <- c:
	default:
		c.srv.wg.Add(1)
		go c.srv.runWatch(c)
	}
}

// The watch's states: its read is pending, has ended for stopWatch or
// handOff to collect, or waits for the next head on a connection the
// serving goroutine has handed to it.
const (
	watchReading int32 = iota
	watchRead
	watchHandedOff
)

// backgroundRead is the watch: it reads one byte, then reports the read
// or serves the connection on (watchEnded).
func (c *conn) backgroundRead() {
	n, err := c.nc.Read(c.rd.b[:])
	switch {
	case n == 1:
		c.rd.held = true
	case err != nil && !errors.Is(err, os.ErrDeadlineExceeded):
		c.gone = true
		c.cancel()
	}
	c.watchEnded()
}

// watchEnded reports the watch's read to stopWatch or handOff, or, on a
// connection handed to the watch, serves it on this goroutine: the read's
// byte starts the next head, and its error ends the connection.
func (c *conn) watchEnded() {
	if c.watchState.CompareAndSwap(watchReading, watchRead) {
		c.watchDone <- struct{}{}
		return
	}
	c.watching = false
	c.serve()
}

// handOff leaves the watch's pending read as the connection's wait for
// its next head, and the connection to the watch's goroutine, and reports
// whether it did. A read that has ended already is collected instead, and
// the caller serves on with what it read.
func (c *conn) handOff() bool {
	if !c.watching {
		return false
	}
	if c.watchState.CompareAndSwap(watchReading, watchHandedOff) {
		return true
	}
	<-c.watchDone
	c.watching = false
	return false
}

// aLongTimeAgo is a read deadline that ends a pending read at once.
var aLongTimeAgo = time.Unix(1, 0)

// stopWatch ends the background read and waits for it.
func (c *conn) stopWatch() {
	if !c.watching {
		return
	}
	c.watching = false
	failed := c.nc.SetReadDeadline(aLongTimeAgo) != nil // closed: the read ends anyway
	<-c.watchDone
	if failed || c.nc.SetReadDeadline(time.Time{}) != nil {
		c.gone = true
	}
}

// Request heads.

// readRequest reads the next request head into c.req. A head the loop
// refuses comes back as the status to answer it with (400, 431, 501 or
// 505); err is a read error: the client went, or ran past the header
// timeout.
//
//locshort:hotpath
func (c *conn) readRequest() (code int, err error) {
	line, err := wire.ReadLine(c.br)
	switch {
	case err == wire.ErrLongLine:
		return http.StatusRequestHeaderFieldsTooLarge, nil
	case err != nil:
		return 0, err
	}
	line, ok := bytes.CutSuffix(line, crlf)
	if !ok {
		return http.StatusBadRequest, nil
	}
	method, rest, ok1 := bytes.Cut(line, sp)
	target, proto, ok2 := bytes.Cut(rest, sp)
	if !ok1 || !ok2 || !isToken(method) || len(target) == 0 || target[0] != '/' || hasCTL(target) {
		return http.StatusBadRequest, nil
	}
	r := c.req
	*r = c.blank
	switch string(proto) {
	case "HTTP/1.1":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	case "HTTP/1.0":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.0", 1, 0
	default:
		if len(proto) == 8 && string(proto[:5]) == "HTTP/" && wire.IsDigit(proto[5]) && proto[6] == '.' && wire.IsDigit(proto[7]) {
			return http.StatusHTTPVersionNotSupported, nil
		}
		return http.StatusBadRequest, nil
	}
	r.Method = c.intern(method)
	r.RequestURI = c.intern(target)
	if !c.parseTarget(r.RequestURI) {
		return http.StatusBadRequest, nil
	}
	r.URL = &c.url

	clear(c.hdr)
	r.Header = c.hdr
	hosts, chunked, closing, keepAlive := 0, false, false, false
	length := int64(-1)
	lengthText := ""
	for n := 0; ; n++ {
		line, err := wire.ReadLine(c.br)
		switch {
		case err == wire.ErrLongLine:
			return http.StatusRequestHeaderFieldsTooLarge, nil
		case err != nil:
			return 0, err
		}
		name, value, end, err := wire.Field(line)
		if err != nil {
			return http.StatusBadRequest, nil
		}
		if end {
			break
		}
		if n == wire.MaxFields {
			return http.StatusRequestHeaderFieldsTooLarge, nil
		}
		key := c.canonical(name)
		switch key {
		case "Host":
			if hosts++; !validHost(value) {
				return http.StatusBadRequest, nil
			}
			r.Host = c.intern(value)
			continue
		case "Content-Length":
			v, ok := wire.ParseLength(value)
			if !ok || length >= 0 && string(value) != lengthText {
				return http.StatusBadRequest, nil
			}
			if length >= 0 {
				continue // an equal repeat: net/http keeps one
			}
			length = v
		case "Transfer-Encoding":
			// As net/http: one field, naming chunked alone.
			if chunked || !wire.EqualFold(value, "chunked") {
				return http.StatusNotImplemented, nil
			}
			chunked = true
			continue // net/http reports it in TransferEncoding only
		case "Connection":
			closing = closing || wire.HasToken(value, "close")
			keepAlive = keepAlive || wire.HasToken(value, "keep-alive")
		case "Trailer":
			if wire.HasToken(value, "Transfer-Encoding") || wire.HasToken(value, "Trailer") ||
				wire.HasToken(value, "Content-Length") {
				return http.StatusBadRequest, nil
			}
		}
		v := c.intern(value)
		if key == "Content-Length" {
			lengthText = v
		}
		if vv, ok := c.hdr[key]; ok {
			c.hdr[key] = append(vv, v)
			continue
		}
		c.vals[n] = v
		c.hdr[key] = c.vals[n : n+1 : n+1]
	}
	http11 := r.ProtoMinor == 1
	if hosts > 1 || http11 && hosts == 0 || chunked && (length >= 0 || !http11) {
		return http.StatusBadRequest, nil
	}
	if pv := c.hdr["Pragma"]; len(pv) > 0 && pv[0] == "no-cache" {
		if _, ok := c.hdr["Cache-Control"]; !ok {
			c.hdr["Cache-Control"] = noCache
		}
	}
	r.Close = closing || !http11 && !keepAlive
	c.body = body{c: c}
	switch {
	case chunked:
		delete(c.hdr, "Trailer") // net/http moves it out of the header of a chunked request
		r.TransferEncoding, r.ContentLength, r.Body = chunkedCoding, -1, &c.body
		c.body.chunked = httputil.NewChunkedReader(c.br) //locshort:alloc-ok chunked request bodies are rare
	case length > 0:
		r.ContentLength, r.Body = length, &c.body
		c.body.remaining = length
	default:
		r.ContentLength, r.Body = 0, http.NoBody
	}
	return 0, nil
}

var (
	crlf, sp      = []byte("\r\n"), []byte(" ")
	chunkedCoding = []string{"chunked"}
	noCache       = []string{"no-cache"}
)

// intern returns b as a string, reusing one of the connection's recent
// strings when it is equal: a client sends the same method, path, host
// and most header values on every request.
func (c *conn) intern(b []byte) string {
	for _, s := range c.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	c.strs[c.nextStr%len(c.strs)] = s
	c.nextStr++
	return s
}

// commonHeaders are the canonical names the daemon and its clients send,
// each mapped to itself, so canonicalizing them allocates nothing.
var commonHeaders = func() map[string]string {
	m := make(map[string]string)
	for _, name := range []string{"Accept", "Accept-Encoding", "Accept-Language", "Authorization",
		"Cache-Control", "Connection", "Content-Length", "Content-Type", "Cookie", "Expect", "Host",
		"If-None-Match", "Keep-Alive", "Origin", "Pragma", "Referer", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "User-Agent", cluster.ForwardedHeader} {
		m[name] = name
	}
	return m
}()

// canonical returns a header name in canonical form, as
// textproto.CanonicalMIMEHeaderKey does for a token.
func (c *conn) canonical(name []byte) string {
	var buf [64]byte
	if len(name) > len(buf) {
		return textproto.CanonicalMIMEHeaderKey(string(name))
	}
	b := buf[:len(name)]
	upper := true
	for i, ch := range name {
		if upper && 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		} else if !upper && 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		b[i] = ch
		upper = ch == '-'
	}
	if s, ok := commonHeaders[string(b)]; ok {
		return s
	}
	return c.intern(b)
}

// parseTarget sets c.url from an origin-form request target, as
// url.ParseRequestURI does. A path of characters the URL package leaves
// unescaped is sliced from target; anything else goes through
// ParseRequestURI.
func (c *conn) parseTarget(target string) bool {
	path, query, hasQuery := strings.Cut(target, "?")
	plain := true
	for i := 0; i < len(path) && plain; i++ {
		plain = pathByte(path[i])
	}
	if plain {
		c.url = url.URL{Path: path, RawQuery: query, ForceQuery: hasQuery && query == ""}
		return true
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return false
	}
	c.url = *u
	return true
}

// pathByte reports whether a path byte is one url.URL keeps as it is.
func pathByte(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || wire.IsDigit(b) ||
		strings.IndexByte("-._~$&+,/:;=@", b) >= 0
}

// isToken reports whether b is a non-empty token: a method or a header
// name.
func isToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if !wire.IsToken(b[i]) {
			return false
		}
	}
	return len(b) > 0
}

// hasCTL reports whether b holds a control character, which
// url.ParseRequestURI refuses in a target.
func hasCTL(b []byte) bool {
	for _, ch := range b {
		if ch < ' ' || ch == 0x7f {
			return true
		}
	}
	return false
}

// validHost reports whether a Host value holds only the bytes net/http's
// server takes in one.
func validHost(v []byte) bool {
	for _, ch := range v {
		if !('a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || wire.IsDigit(ch) ||
			strings.IndexByte("!$%&'()*+,-.:;=[]_~", ch) >= 0) {
			return false
		}
	}
	return true
}

// body is the request body reader: a Content-Length body read from the
// connection's buffer, or a chunked one through net/http's chunk decoder.
// The loop reads what a handler leaves (up to maxDrain) when the answer's
// head goes out, so Close has nothing to do.
type body struct {
	c         *conn
	remaining int64     // bytes left of a Content-Length body
	chunked   io.Reader // the chunk decoder of a chunked body
	eof       bool
	err       error
}

func (b *body) Read(p []byte) (int, error) {
	switch {
	case b.eof:
		return 0, io.EOF
	case b.err != nil:
		return 0, b.err
	}
	c := b.c
	if c.continueOwed {
		c.continueOwed = false
		_, _ = c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n") // a failed write fails the Flush
		if err := c.bw.Flush(); err != nil {
			b.err = err
			return 0, err
		}
	}
	var n int
	var err error
	if b.chunked != nil {
		n, err = b.chunked.Read(p)
		if err == io.EOF {
			if terr := wire.ReadTrailer(c.br); terr != nil {
				err = terr
			}
		}
	} else {
		if int64(len(p)) > b.remaining {
			p = p[:b.remaining]
		}
		n, err = c.br.Read(p)
		b.remaining -= int64(n)
		switch {
		case b.remaining == 0:
			err = io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
	}
	switch {
	case err == io.EOF:
		b.eof = true
		c.startWatch()
	case err != nil:
		b.err = err
	}
	return n, err
}

func (b *body) Close() error { return nil }

// drain reads what the handler left of the body, at most maxDrain bytes,
// and reports whether the connection can read the next request after it.
func (b *body) drain() bool {
	switch {
	case b.eof:
		return true
	case b.err != nil || b.c.expect100:
		// A body that failed, or one whose client expected 100 Continue
		// and may or may not send it: as net/http, close instead.
		return false
	case b.chunked == nil && b.remaining > maxDrain:
		b.c.linger = true
		return false
	}
	_, err := io.CopyN(io.Discard, b, maxDrain+1)
	if err == io.EOF {
		return true
	}
	b.c.linger = err == nil // more than maxDrain is still coming
	return false
}

// Answers.

// response is the connection's http.ResponseWriter. WriteHeader renders
// the status line and the handler's header into the connection's head
// buffer, as net/http snapshots the header then; the body collects in the
// body buffer until it outgrows it or the handler returns, when commit
// adds the framing fields and sends the head.
type response struct {
	c           *conn
	hdr         http.Header
	status      int
	wroteHeader bool
	committed   bool
	chunked     bool
	declared    int64 // the handler's Content-Length, or the one commit sent; -1 for none
	written     int64
	haveType    bool // the handler set Content-Type or Content-Encoding: no sniffing
	haveDate    bool
}

// reset readies w for the next answer.
func (w *response) reset() {
	clear(w.hdr)
	*w = response{c: w.c, hdr: w.hdr, declared: -1}
	w.c.wbuf = w.c.wbuf[:0]
}

func (w *response) Header() http.Header { return w.hdr }

// WriteHeader renders the status line and the handler's header. A second
// call is ignored, as net/http ignores it.
func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.wroteHeader, w.status = true, code
	c := w.c
	c.continueOwed = false // the final answer comes instead
	h := append(c.head[:0], c.req.Proto...)
	h = append(h, ' ')
	h = strconv.AppendInt(h, int64(code), 10)
	h = append(h, ' ')
	if text := http.StatusText(code); text != "" {
		h = append(h, text...)
	} else {
		h = append(h, "status code "...)
		h = strconv.AppendInt(h, int64(code), 10)
	}
	h = append(h, crlf...)
	c.keys = c.keys[:0]
	for k := range w.hdr {
		c.keys = append(c.keys, k)
	}
	slices.Sort(c.keys)
	bodyAllowed := bodyAllowedForStatus(code)
	for _, k := range c.keys {
		vv := w.hdr[k]
		switch k {
		case "Transfer-Encoding":
			continue // the loop frames the body
		case "Connection":
			for _, v := range vv {
				if wire.HasToken([]byte(v), "close") {
					c.closeAfter = true
				}
			}
			continue // commit writes the loop's own
		case "Content-Length":
			if !bodyAllowed || len(vv) == 0 {
				continue
			}
			n, ok := wire.ParseLength(vv[0])
			if !ok {
				continue // net/http drops an invalid one too
			}
			w.declared = n
			vv = vv[:1]
		case "Content-Type":
			if code == http.StatusNotModified {
				continue
			}
			w.haveType = true
		case "Content-Encoding":
			w.haveType = w.haveType || len(vv) > 0 && vv[0] != ""
		case "Date":
			w.haveDate = true
		}
		if !isToken(k) {
			continue // net/http drops a name it cannot send
		}
		for _, v := range vv {
			h = appendField(h, k, v)
		}
	}
	c.head = h
}

// appendField appends one header line, its value with CR and LF turned
// into spaces and trimmed, as net/http writes values.
func appendField(h []byte, name, v string) []byte {
	h = append(h, name...)
	h = append(h, ": "...)
	i, j := 0, len(v)
	for i < j && asciiSpace(v[i]) {
		i++
	}
	for j > i && asciiSpace(v[j-1]) {
		j--
	}
	for ; i < j; i++ {
		b := v[i]
		if b == '\r' || b == '\n' {
			b = ' '
		}
		h = append(h, b)
	}
	return append(h, crlf...)
}

func asciiSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.declared >= 0 && w.written > w.declared {
		return 0, http.ErrContentLength
	}
	c := w.c
	if !w.committed {
		if len(c.wbuf)+len(p) <= cap(c.wbuf) {
			c.wbuf = append(c.wbuf, p...)
			return len(p), nil
		}
		sniff := c.wbuf
		if len(sniff) == 0 {
			sniff = p
		}
		w.commit(false, sniff)
	}
	if c.req.Method == http.MethodHead {
		return len(p), nil
	}
	if err := w.writeBody(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// commit sends the head: the rendered status line and handler header,
// then the fields the loop decides now (Date, Content-Length,
// Content-Type, Connection, Transfer-Encoding), then what the body buffer
// holds. final reports that the handler returned, so the buffer is the
// whole body; sniff is the body's start, for a Content-Type.
func (w *response) commit(final bool, sniff []byte) {
	c := w.c
	r := c.req
	w.committed = true
	if r.ContentLength != 0 && !c.closeAfter && !c.body.drain() {
		c.closeAfter = true
	}
	isHEAD := r.Method == http.MethodHead
	bodyAllowed := bodyAllowedForStatus(w.status)
	h := c.head
	if !w.haveDate {
		h = append(h, "Date: "...)
		h = c.appendDate(h)
		h = append(h, crlf...)
	}
	if final && w.declared < 0 && bodyAllowed && (!isHEAD || len(c.wbuf) > 0) {
		w.declared = int64(len(c.wbuf))
		h = append(h, "Content-Length: "...)
		h = strconv.AppendInt(h, w.declared, 10)
		h = append(h, crlf...)
	}
	if bodyAllowed && !w.haveType && len(sniff) > 0 {
		h = append(h, "Content-Type: "...)
		h = append(h, http.DetectContentType(sniff)...)
		h = append(h, crlf...)
	}
	switch {
	case isHEAD || !bodyAllowed || w.declared >= 0:
	case r.ProtoMinor == 1:
		w.chunked = true
	default:
		// An HTTP/1.0 body without a length ends when the connection does.
		c.closeAfter = true
	}
	switch {
	case c.closeAfter:
		h = append(h, "Connection: close\r\n"...)
	case r.ProtoMinor == 0:
		h = append(h, "Connection: keep-alive\r\n"...)
	}
	if w.chunked {
		h = append(h, "Transfer-Encoding: chunked\r\n"...)
	}
	h = append(h, crlf...)
	c.head = h
	_, _ = c.bw.Write(h) // a failed write fails the next one, and the Flush
	if len(c.wbuf) > 0 && !isHEAD {
		_ = w.writeBody(c.wbuf)
	}
	c.wbuf = c.wbuf[:0]
}

// writeBody writes p to the connection, as a chunk if the answer is
// chunked.
func (w *response) writeBody(p []byte) error {
	bw := w.c.bw
	if w.chunked {
		b := strconv.AppendInt(bw.AvailableBuffer(), int64(len(p)), 16)
		_, _ = bw.Write(append(b, crlf...))
		_, _ = bw.Write(p)
		_, err := bw.Write(crlf)
		return err
	}
	_, err := bw.Write(p)
	return err
}

// appendDate appends the Date value, formatted once a second.
func (c *conn) appendDate(h []byte) []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return append(h, c.date[:]...)
}

// bodyAllowedForStatus reports whether an answer with this status may
// have a body: not 1xx, 204 or 304.
func bodyAllowedForStatus(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}
