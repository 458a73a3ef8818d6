package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxIdlePerPeer bounds each peer's list of idle keep-alive connections.
const maxIdlePerPeer = 64

// maxKeptRequestBuf is the largest request buffer a pooled connection keeps
// for its next call. A bigger request (a graph push) is written from a
// buffer that is dropped afterwards, so an idle connection never pins a
// payload-sized allocation.
const maxKeptRequestBuf = 64 << 10

// errAnswerTooLong is an answer whose body runs past the caller's limit.
// The peer answered, so it is not a transport failure.
var errAnswerTooLong = errors.New("cluster: peer answer over its size limit")

// link is this node's client side of one peer: its down backoff and its
// idle keep-alive connections. Links are made once, in New, one per peer.
type link struct {
	// downUntil is the unix-nano deadline before which the peer is not
	// dialed (0: up).
	downUntil atomic.Int64

	mu   sync.Mutex
	idle []*peerConn // most recently used last; get takes from the end
}

// get takes the most recently used idle connection, or nil if none.
func (l *link) get() *peerConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	pc := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return pc
}

// put returns a connection after a complete answer, or closes it when the
// idle list is full.
func (l *link) put(pc *peerConn) {
	l.mu.Lock()
	kept := len(l.idle) < maxIdlePerPeer
	if kept {
		l.idle = append(l.idle, pc)
	}
	l.mu.Unlock()
	if !kept {
		pc.close()
	}
}

// dropIdle closes every idle connection: one of them went stale, which
// usually means the peer restarted and the rest are stale too.
func (l *link) dropIdle() {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}

// peerConn is one keep-alive HTTP/1.1 connection to a peer, used by one
// call at a time.
type peerConn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // the request being written, reused across calls
	// expire is the bound method pc.expireNow, made once so that
	// registering it with context.AfterFunc on every call does not
	// allocate a method value.
	expire func()
}

// aLongTimeAgo is a deadline in the past: setting it fails pending I/O.
var aLongTimeAgo = time.Unix(1, 0)

func dialPeer(ctx context.Context, addr string, deadline time.Time) (*peerConn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{nc: nc, br: bufio.NewReader(nc)}
	pc.expire = pc.expireNow
	return pc, nil
}

func (pc *peerConn) expireNow() { _ = pc.nc.SetDeadline(aLongTimeAgo) }

func (pc *peerConn) close() { _ = pc.nc.Close() }

// validHeaderValue reports whether v may be sent as a header value: no
// control character but tab, the rule net/http's Transport applies, so a
// value cannot end the header early and smuggle in lines of its own.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

// exchange is the one HTTP exchange with a peer, shared by every client
// call. It sends method and path with body (nil for none) and each header
// key/value pair whose value is not empty, and returns the answer's
// status, header and body, whatever the status. The body is at most limit
// bytes; a longer one is an error.
//
// The request goes out on one of the peer's pooled keep-alive connections
// (or a fresh dial) in a single Write, and the answer is parsed by
// http.ReadResponse. The call's timeout is the connection's deadline, and
// the caller's context expires that deadline early. A transport failure or
// the timeout marks the peer down; an answer marks it up; a call whose
// context ended leaves the mark alone, because a caller giving up says
// nothing about the peer. A reused connection that fails before any byte
// of the answer was stale: the peer's whole idle list is dropped and the
// call is retried once on a fresh dial. Every peer call is idempotent, so
// the retry is safe.
func (c *Cluster) exchange(ctx context.Context, timeout time.Duration, method, peer, path string,
	body []byte, limit int64, header ...string) (int, http.Header, []byte, error) {
	l, ok := c.links[peer]
	if !ok {
		return 0, nil, nil, fmt.Errorf("cluster: %s is not a peer", peer)
	}
	for i := 0; i+1 < len(header); i += 2 {
		if !validHeaderValue(header[i+1]) {
			return 0, nil, nil, fmt.Errorf("cluster: invalid %s header value %q", header[i], header[i+1])
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: peer %s %s: %w", peer, path, err)
	}
	deadline := time.Now().Add(timeout)
	pc := l.get()
	for {
		reused := pc != nil
		var err error
		if !reused {
			pc, err = dialPeer(ctx, peer, deadline)
		}
		var a answer
		if err == nil {
			a, err = pc.roundTrip(ctx, deadline, method, peer, path, body, limit, header)
			if err == nil {
				c.markUp(peer)
				if a.keep {
					l.put(pc)
				} else {
					pc.close()
				}
				return a.status, a.header, a.body, nil
			}
			pc.close()
		}
		switch {
		case ctx.Err() != nil:
			return 0, nil, nil, fmt.Errorf("cluster: peer %s %s: %w", peer, path, ctx.Err())
		case errors.Is(err, errAnswerTooLong):
			c.markUp(peer)
			return 0, nil, nil, fmt.Errorf("%w: %s %s over %d bytes", errAnswerTooLong, peer, path, limit)
		case reused && a.unanswered && !errors.Is(err, os.ErrDeadlineExceeded):
			l.dropIdle()
			pc = nil
			continue
		}
		c.markDown(peer)
		return 0, nil, nil, fmt.Errorf("cluster: peer %s unreachable: %w", peer, err)
	}
}

// answer is one round trip's result. keep reports that the connection may
// serve another call; unanswered that the round trip failed before any
// byte of the answer arrived.
type answer struct {
	status     int
	header     http.Header
	body       []byte
	keep       bool
	unanswered bool
}

// roundTrip writes one request on pc and reads its answer.
func (pc *peerConn) roundTrip(ctx context.Context, deadline time.Time, method, host, path string,
	body []byte, limit int64, header []string) (a answer, err error) {
	a.unanswered = true
	if err := pc.nc.SetDeadline(deadline); err != nil {
		return a, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, pc.expire)
		defer func() {
			// A deadline the caller's context expired may still be set (or
			// about to be): this connection cannot serve another call.
			if !stop() {
				a.keep = false
			}
		}()
	}

	b := append(pc.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if len(body) > 0 || method != http.MethodGet {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			b = append(b, header[i]...)
			b = append(b, ": "...)
			b = append(b, header[i+1]...)
			b = append(b, "\r\n"...)
		}
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	_, err = pc.nc.Write(b)
	if cap(b) <= maxKeptRequestBuf {
		pc.buf = b[:0]
	} else {
		pc.buf = nil
	}
	if err != nil {
		return a, err
	}
	if _, err := pc.br.Peek(1); err != nil {
		return a, err
	}
	a.unanswered = false

	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		return a, err
	}
	switch {
	case resp.ContentLength > limit:
		return a, errAnswerTooLong
	case resp.ContentLength >= 0:
		a.body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, a.body)
	default:
		// Chunked, or read until the peer closes: at most limit bytes,
		// plus one to tell a body of exactly limit bytes from a longer one.
		a.body, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err == nil && int64(len(a.body)) > limit {
			err = errAnswerTooLong
		}
	}
	if err != nil {
		return a, err
	}
	a.status, a.header = resp.StatusCode, resp.Header
	// A body that ran until the peer closed leaves nothing to reuse.
	a.keep = !resp.Close && (resp.ContentLength >= 0 || len(resp.TransferEncoding) > 0)
	return a, nil
}
