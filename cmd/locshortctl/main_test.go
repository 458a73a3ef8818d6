package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// openStore opens a fresh segment store in a temporary directory.
func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// populate stores one graph, one shortcut built on it, and one job record.
func populate(t *testing.T, b *store.Store) {
	t.Helper()
	g, _, err := cli.ParseGraph("grid:5x5", 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cli.ParsePartition(g, "blobs:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(g, parts, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gfp := service.FingerprintGraph(g)
	key := service.ShortcutKey(gfp, parts, shortcut.Options{})
	if err := b.PutGraph(gfp, g); err != nil {
		t.Fatal(err)
	}
	if err := b.PutShortcut(key, gfp, parts, shortcut.Options{}, res, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	payload, err := jobs.EncodeRecord(jobs.Record{ID: 7, Kind: "build", State: jobs.Done})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutJob(7, payload); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// TestAdminSubcommandsPerBackend drives ls, verify, jobs ls, and gc over
// a segment store.
func TestAdminSubcommandsPerBackend(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		b := openStore(t)
		defer b.Close()
		populate(t, b)

		out, err := capture(t, func() error { return runLs(b) })
		if err != nil {
			t.Fatalf("ls: %v", err)
		}
		for _, want := range []string{"graph", "partition", "shortcut", "1 jobs)"} {
			if !strings.Contains(out, want) {
				t.Errorf("ls output missing %q:\n%s", want, out)
			}
		}

		out, err = capture(t, func() error { return runVerify(b) })
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		if !strings.Contains(out, "store clean") {
			t.Errorf("verify output not clean:\n%s", out)
		}

		out, err = capture(t, func() error { return runJobsLs(b) })
		if err != nil {
			t.Fatalf("jobs ls: %v", err)
		}
		if !strings.Contains(out, "1 done") {
			t.Errorf("jobs ls output missing the done job:\n%s", out)
		}

		out, err = capture(t, func() error { return runGC(b) })
		if err != nil {
			t.Fatalf("gc: %v", err)
		}
		if !strings.Contains(out, "gc: reclaimed") {
			t.Errorf("gc output missing summary:\n%s", out)
		}

		// The store must still verify clean after GC.
		if _, err := capture(t, func() error { return runVerify(b) }); err != nil {
			t.Fatalf("verify after gc: %v", err)
		}
	})
}

// TestRemoteVerifyPerBackend serves a segment store's records over the
// peer API with httptest and re-verifies them client-side, the way
// `locshortctl verify -addr` does against a live node: clean, then with
// one byte flipped in every graph payload and record frame the node
// serves, which must fail with one PROBLEM line per bad record.
func TestRemoteVerifyPerBackend(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		b := openStore(t)
		defer b.Close()
		populate(t, b)

		cl, err := cluster.New(cluster.Config{
			Self:  "node:1",
			Nodes: []string{"node:1"},
			Store: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := cl.Handler()
		var corrupt atomic.Bool
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !corrupt.Load() || !strings.HasPrefix(r.URL.Path, "/v1/peer/graphs/") &&
				!strings.HasPrefix(r.URL.Path, "/v1/peer/records/") {
				h.ServeHTTP(w, r)
				return
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, r)
			body := rr.Body.Bytes()
			body[len(body)/2] ^= 0x01
			w.Header().Set("Content-Type", rr.Header().Get("Content-Type"))
			w.WriteHeader(rr.Code)
			w.Write(body)
		}))
		defer srv.Close()
		addr := strings.TrimPrefix(srv.URL, "http://")

		out, err := capture(t, func() error { return runRemoteVerify(addr) })
		if err != nil {
			t.Fatalf("remote verify: %v", err)
		}
		if !strings.Contains(out, "clean") {
			t.Errorf("remote verify output not clean:\n%s", out)
		}

		corrupt.Store(true)
		out, err = capture(t, func() error { return runRemoteVerify(addr) })
		if err == nil || !strings.Contains(err.Error(), "2 of 2 records failed") {
			t.Fatalf("remote verify of a corrupt node: %v, want 2 of 2 records failed", err)
		}
		var problems []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "PROBLEM: ") {
				problems = append(problems, line)
			}
		}
		if len(problems) != 2 || !strings.HasPrefix(problems[0], "PROBLEM: graph ") ||
			!strings.HasPrefix(problems[1], "PROBLEM: shortcut ") {
			t.Fatalf("want one PROBLEM line for the graph and one for the shortcut:\n%s", out)
		}
		for _, line := range problems {
			if !strings.Contains(line, "hashes to") {
				t.Errorf("problem is not a failed content hash: %s", line)
			}
		}
	})
}
