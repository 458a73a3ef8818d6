// Command loadgen is the smoke-test client for locshortd. It waits for every
// node to answer GET /readyz, ingests a catalog of graph families through
// every node, runs eight closed-loop connections of shortcut requests for
// -duration, and sums the nodes' own counters from GET /v1/stats. CI's
// smoke steps run it, and so does the restart drill of OPERATIONS.md §5,
// which holds the flag table.
//
//	loadgen [-addr 127.0.0.1:8080[,HOST:PORT...]] [-duration 10s]
//	        [-catalog "grid:32x32;torus:16x16;wheel:200;ktree:300,4"]
//	        [-parts blobs:32] [-seeds 4] [-mode json|binary|async]
//	        [-require-hits] [-require-store-hits]
//
// The catalog's graphs times -seeds partition seeds make K shortcut keys,
// and -addr lists N nodes. Request n of connection w asks for key
// (w+n) mod K through node ⌊(w+n)/K⌋ mod N, so every key repeats and
// enters through every node, whatever K and N are. In -mode binary the
// catalog goes up as canonical payloads behind If-None-Match and answers
// are stored payloads; in -mode async each request is submitted with
// "async": true and long-polled at GET /v1/jobs/{id}, and a job that ends
// failed or canceled is a failed request. A run prints what the clients
// saw, by the source each answer names, and the nodes' counters, summed:
//
//	requests: 25245 ok, 0 errors (cache 25244, store 0, peer 0, built 1)
//	server: 1 builds, 25244 cache hits, 0 store hits, 0 peer hits on 1 nodes
//
// It exits nonzero on any failed request, when no request completed, or
// when the counter a -require-* flag names is zero. Latency, throughput
// and allocations are cmd/locshortbench's to measure.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"locshort/internal/cli"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

const (
	// conns is the number of closed-loop connections.
	conns = 8
	// timeout bounds one request, and how long one async job is polled, so
	// a wedged daemon or job queue shows as failed requests, not a hang.
	timeout = 5 * time.Minute
)

// sources are the latency classes an answer can name, in report order.
var sources = [...]string{"cache", "store", "peer", "built"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr             = fs.String("addr", "127.0.0.1:8080", "locshortd address (host:port or URL); a comma-separated list for a cluster")
		duration         = fs.Duration("duration", 10*time.Second, "how long to send requests")
		catalog          = fs.String("catalog", "grid:32x32;torus:16x16;wheel:200;ktree:300,4", "semicolon-separated graph family specs")
		parts            = fs.String("parts", "blobs:32", "partition spec sent with every request")
		seeds            = fs.Int("seeds", 4, "partition seeds per graph; the catalog times this many shortcut keys")
		mode             = fs.String("mode", "json", `json, binary (binary ingest and answers) or async ("async": true, long-polled)`)
		requireHits      = fs.Bool("require-hits", false, "exit nonzero unless the servers count cache hits")
		requireStoreHits = fs.Bool("require-store-hits", false, "exit nonzero unless the servers count durable-store hits")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if !slices.Contains([]string{"json", "binary", "async"}, *mode) {
		return fmt.Errorf("-mode must be json, binary or async, got %q", *mode)
	}

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: timeout}
	var nodes []*node
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); !strings.Contains(a, "://") {
			a = "http://" + a
		}
		n := &node{base: a, hc: hc}
		if err := n.awaitReady(30 * time.Second); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	graphs, err := ingest(nodes, *catalog, *mode == "binary", out)
	if err != nil {
		return err
	}

	var (
		mu       sync.Mutex
		counts   [len(sources)]int
		failed   int
		firstErr error
		wg       sync.WaitGroup
	)
	s := *seeds
	keys := len(graphs) * s
	deadline := time.Now().Add(*duration)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				k, nd := i%keys, nodes[i/keys%len(nodes)]
				src, err := nd.shortcut(*mode, graphs[k/s], *parts, int64(k%s))
				// A relayed answer names the owner's class behind "forward:".
				c := slices.Index(sources[:], strings.TrimPrefix(src, "forward:"))
				if err == nil && c < 0 {
					err = fmt.Errorf("%s: answer names no known source (%q)", nd.base, src)
				}
				mu.Lock()
				if err == nil {
					counts[c]++
				} else if failed++; firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ok := counts[0] + counts[1] + counts[2] + counts[3]
	fmt.Fprintf(out, "requests: %d ok, %d errors (cache %d, store %d, peer %d, built %d)\n",
		ok, failed, counts[0], counts[1], counts[2], counts[3])

	// The servers' own accounting, summed: in a cluster, which node's
	// cache or store served a key depends on ring ownership, not on the
	// node a request entered through.
	var sum service.Stats
	for _, n := range nodes {
		var st struct{ Stats service.Stats }
		if _, err := n.call(http.MethodGet, "/v1/stats", nil, "", http.StatusOK, &st); err != nil {
			return err
		}
		sum.Builds += st.Stats.Builds
		sum.CacheHits += st.Stats.CacheHits
		sum.StoreHits += st.Stats.StoreHits
		sum.PeerHits += st.Stats.PeerHits
	}
	fmt.Fprintf(out, "server: %d builds, %d cache hits, %d store hits, %d peer hits on %d nodes\n",
		sum.Builds, sum.CacheHits, sum.StoreHits, sum.PeerHits, len(nodes))
	switch {
	case failed > 0:
		return fmt.Errorf("%d of %d requests failed, the first: %w", failed, ok+failed, firstErr)
	case ok == 0:
		return fmt.Errorf("no request completed within %v", *duration)
	case *requireHits && sum.CacheHits == 0:
		return errors.New("-require-hits: the servers count no cache hits")
	case *requireStoreHits && sum.StoreHits == 0:
		return errors.New("-require-store-hits: the servers count no store hits")
	}
	return nil
}

// ingest registers the catalog through every node and returns the graphs'
// fingerprints. Content addressing makes the repeats no-ops, and ingesting
// everywhere keeps the run from depending on a cluster's ingest broadcast.
// In binary mode the fingerprint is computed here from the canonical
// payload, which goes up behind If-None-Match: a node that holds the graph
// answers 304 before it reads the body.
func ingest(nodes []*node, catalog string, binary bool, out io.Writer) ([]service.Fingerprint, error) {
	var fps []service.Fingerprint
	for _, spec := range strings.Split(catalog, ";") {
		spec = strings.TrimSpace(spec)
		var ans struct {
			Graph string `json:"graph"`
		}
		var body, dst any = map[string]string{"spec": spec}, &ans
		etag := ""
		if binary {
			g, _, err := cli.ParseGraph(spec, 0)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", spec, err)
			}
			payload := store.EncodeGraphPayload(g)
			body, dst, ans.Graph = payload, nil, service.FingerprintBytes(payload[1:]).String()
			etag = `"` + ans.Graph + `"`
		}
		for _, n := range nodes {
			if _, err := n.call(http.MethodPost, "/v1/graphs", body, etag, http.StatusOK, dst); err != nil {
				return nil, fmt.Errorf("ingest %q: %w", spec, err)
			}
		}
		fp, err := service.ParseFingerprint(ans.Graph)
		if err != nil {
			return nil, fmt.Errorf("ingest %q: %w", spec, err)
		}
		fps = append(fps, fp)
		fmt.Fprintf(out, "ingested %s as %s\n", spec, fp)
	}
	return fps, nil
}

// node is one daemon the run talks to.
type node struct {
	base string // http://host:port
	hc   *http.Client
}

// awaitReady polls GET /readyz until it answers 200: the listener binds
// before the warm start, and in a cluster readiness also waits out a
// ring-config drift.
func (n *node) awaitReady(wait time.Duration) error {
	for deadline := time.Now().Add(wait); ; time.Sleep(100 * time.Millisecond) {
		_, err := n.call(http.MethodGet, "/readyz", nil, "", http.StatusOK, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v: %w", wait, err)
		}
	}
}

// shortcut asks the node for one shortcut in the given mode and returns
// the source its answer names.
func (n *node) shortcut(mode string, fp service.Fingerprint, parts string, seed int64) (string, error) {
	if mode == "binary" {
		body := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: fp, Partition: parts, Seed: seed})
		h, err := n.call(http.MethodPost, "/v1/shortcuts", body, "", http.StatusOK, nil)
		return h.Get(wire.HeaderSource), err
	}
	req := map[string]any{"graph": fp.String(), "partition": parts, "seed": seed}
	var ans struct {
		ID, State, Error, Source string
		Result                   struct{ Source string }
	}
	if mode == "json" {
		_, err := n.call(http.MethodPost, "/v1/shortcuts", req, "", http.StatusOK, &ans)
		return ans.Source, err
	}
	req["async"] = true
	if _, err := n.call(http.MethodPost, "/v1/shortcuts", req, "", http.StatusAccepted, &ans); err != nil {
		return "", err
	}
	for start := time.Now(); time.Since(start) < timeout; {
		if _, err := n.call(http.MethodGet, "/v1/jobs/"+ans.ID+"?wait=30s", nil, "", http.StatusOK, &ans); err != nil {
			return "", err
		}
		switch ans.State {
		case "done":
			return ans.Result.Source, nil
		case "failed", "canceled":
			return "", fmt.Errorf("%s: job %s %s: %s", n.base, ans.ID, ans.State, ans.Error)
		}
	}
	return "", fmt.Errorf("%s: job %s still %s after %v", n.base, ans.ID, ans.State, timeout)
}

// call sends one request and checks that the answer's status is want; a
// request with an etag (sent as If-None-Match) takes 304 too. body is
// JSON-encoded, or sent as it is in the binary protocol when it is a
// []byte. A JSON answer is decoded into out when out is not nil, and the
// body is always read to its end, so the connection goes back to the pool.
func (n *node) call(method, path string, body any, etag string, want int, out any) (http.Header, error) {
	b, ctype := []byte(nil), "application/json"
	if raw, ok := body.([]byte); ok {
		b, ctype = raw, wire.ContentType
	} else if body != nil {
		b, _ = json.Marshal(body) // maps of strings and numbers always encode
	}
	req, err := http.NewRequest(method, n.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("Accept", ctype)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want && (etag == "" || resp.StatusCode != http.StatusNotModified) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s %s%s: %s: %s", method, n.base, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("%s %s%s: %w", method, n.base, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.Header, err
}
