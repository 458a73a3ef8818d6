package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/wire"
)

// testFrame is a request frame for forwards whose owner ignores it.
var testFrame = wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: 1, Partition: "blobs:2", Seed: 1})

// idleConns counts the connections pooled to peer.
func idleConns(c *Cluster, peer string) int {
	l := c.links[peer]
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

// blockingOwner answers nothing until the request's connection goes away.
var blockingOwner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	// The server watches the connection, and so can cancel the request's
	// context, only once the body has been read.
	io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
})

// TestTransportRedialsAfterOwnerDropsIdle: the owner closes every pooled
// connection (a restart looks the same). The next forward finds its
// connection stale before any answer byte, drops the whole idle list,
// and succeeds on one fresh dial, without the owner counting as down.
func TestTransportRedialsAfterOwnerDropsIdle(t *testing.T) {
	const n = 3
	var arrived sync.WaitGroup
	arrived.Add(n)
	gate := make(chan struct{})
	var seen atomic.Int32
	cl, srv, owner := newForwarder(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			// Hold the first n requests until all are in flight, so
			// each rides its own connection.
			arrived.Done()
			select {
			case <-gate:
			case <-time.After(5 * time.Second): // a sibling failed to arrive
			}
		}
		io.WriteString(w, "ok")
	}), Config{})
	go func() {
		arrived.Wait()
		close(gate)
	}()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := cl.Forward(t.Context(), owner, "/v1/shortcuts", testFrame, ""); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := idleConns(cl, owner); got < n {
		t.Fatalf("%d idle connections pooled, want at least %d", got, n)
	}

	srv.CloseClientConnections()
	status, _, body, err := cl.Forward(t.Context(), owner, "/v1/shortcuts", testFrame, "")
	if err != nil || status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("forward after the owner dropped its connections: status %d body %q err %v", status, body, err)
	}
	if !cl.Available(owner) {
		t.Fatal("stale pooled connections marked a healthy owner down")
	}
	if s := cl.Stats(); s.Forwards != n+1 || s.ForwardErrors != 0 {
		t.Fatalf("forwards %d errors %d, want %d and 0", s.Forwards, s.ForwardErrors, n+1)
	}
	if got := idleConns(cl, owner); got != 1 {
		t.Fatalf("%d idle connections after the redial, want only the fresh one", got)
	}
}

// TestTransportRefusesControlCharsInHeaders: a header value that could end
// the header early is refused before the peer is even dialed, and says
// nothing about the peer's health.
func TestTransportRefusesControlCharsInHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	owner := ln.Addr().String()
	cl := newPeerOf(t, owner, Config{})

	for _, accept := range []string{wire.ContentType + "\r\nX-Smuggled: 1", "a\nb", "a\rb", "a\x00b", "a\x7fb"} {
		if _, _, _, err := cl.Forward(t.Context(), owner, "/v1/shortcuts", testFrame, accept); err == nil {
			t.Fatalf("Accept %q was sent", accept)
		}
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("the peer was dialed for a refused request")
	}
	if !cl.Available(owner) {
		t.Fatal("a refused header marked the peer down")
	}
}

// TestTransportConcurrentForwardsWhileOwnerDrops: goroutines forward at
// once while the owner keeps closing its idle connections and answering
// some requests with Connection: close. Every forward succeeds.
func TestTransportConcurrentForwardsWhileOwnerDrops(t *testing.T) {
	want := []byte("answer")
	cl, srv, owner := newForwarder(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Error(err)
		}
		w.Write(want)
	}), Config{})

	stop := make(chan struct{})
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Disabling keep-alives closes every idle connection.
			srv.Config.SetKeepAlivesEnabled(false)
			time.Sleep(100 * time.Microsecond)
			srv.Config.SetKeepAlivesEnabled(true)
			time.Sleep(time.Millisecond)
		}
	}()

	const goroutines, forwards = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < forwards; i++ {
				status, _, body, err := cl.Forward(t.Context(), owner, "/v1/shortcuts", testFrame, wire.ContentType)
				if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("forward: status %d body %q err %v", status, body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-dropped
	if s := cl.Stats(); s.Forwards != goroutines*forwards || s.ForwardErrors != 0 {
		t.Fatalf("forwards %d errors %d, want %d and 0", s.Forwards, s.ForwardErrors, goroutines*forwards)
	}
}

// TestTransportCallerGoneIsNotOwnerFailure: a caller whose own deadline
// passes, or who cancels, while a healthy owner is still working gets its
// context's error back. The owner stays available, and the call counts as
// neither a forward nor a forward error.
func TestTransportCallerGoneIsNotOwnerFailure(t *testing.T) {
	cl, _, owner := newForwarder(t, blockingOwner, Config{DownBackoff: time.Minute})

	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	if _, _, _, err := cl.Forward(ctx, owner, "/v1/shortcuts", testFrame, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline: err %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel = context.WithCancel(t.Context())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, _, _, err := cl.Forward(ctx, owner, "/v1/shortcuts", testFrame, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller cancel: err %v, want context.Canceled", err)
	}
	if !cl.Available(owner) {
		t.Fatal("a caller giving up marked a healthy owner down")
	}
	if s := cl.Stats(); s.Forwards != 0 || s.ForwardErrors != 0 {
		t.Fatalf("forwards %d errors %d, want 0 and 0", s.Forwards, s.ForwardErrors)
	}
}

// TestTransportTimeoutMarksOwnerDown: the per-call timeout is the owner's
// failure, unlike a caller's own deadline.
func TestTransportTimeoutMarksOwnerDown(t *testing.T) {
	cl, _, owner := newForwarder(t, blockingOwner,
		Config{ForwardTimeout: 50 * time.Millisecond, DownBackoff: time.Minute})
	if _, _, _, err := cl.Forward(t.Context(), owner, "/v1/shortcuts", testFrame, ""); err == nil {
		t.Fatal("a forward past its timeout succeeded")
	}
	if cl.Available(owner) {
		t.Fatal("an owner that timed out is still available")
	}
	if s := cl.Stats(); s.ForwardErrors != 1 {
		t.Fatalf("forward errors %d, want 1", s.ForwardErrors)
	}
}

// TestTransportAnswerOverLimit: an answer longer than the call's limit is
// an error, whether it declares its length or is chunked, and not the
// peer's failure: it answered. An answer of exactly the limit is whole.
func TestTransportAnswerOverLimit(t *testing.T) {
	const limit = 16
	cl, _, peer := newForwarder(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		body := bytes.Repeat([]byte{'x'}, n)
		if r.URL.Query().Has("chunked") {
			// A flush before the handler ends forces chunked encoding.
			w.Write(body[:1])
			w.(http.Flusher).Flush()
			w.Write(body[1:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(body)
	}), Config{})

	for _, tc := range []struct {
		path string
		n    int
	}{
		{"/?n=16", 16}, {"/?n=17", -1}, {"/?n=100000", -1},
		{"/?n=16&chunked", 16}, {"/?n=17&chunked", -1}, {"/?n=100000&chunked", -1},
	} {
		status, _, body, err := cl.exchange(t.Context(), 5*time.Second, http.MethodGet, peer, tc.path, nil, limit)
		switch {
		case tc.n >= 0 && (err != nil || status != http.StatusOK || len(body) != tc.n):
			t.Errorf("%s: status %d, %d bytes, err %v; want 200 and %d bytes", tc.path, status, len(body), err, tc.n)
		case tc.n < 0 && !errors.Is(err, errAnswerTooLong):
			t.Errorf("%s: status %d, %d bytes, err %v; want an over-limit error", tc.path, status, len(body), err)
		}
		if !cl.available(peer) {
			t.Fatalf("%s: a peer that answered was marked down", tc.path)
		}
	}
}
