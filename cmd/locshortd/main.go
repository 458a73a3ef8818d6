// Command locshortd is the shortcut-serving daemon: an HTTP front end
// over internal/service's concurrent engine and content-addressed cache,
// optionally backed by the internal/store durable snapshot store. Every
// route speaks JSON; the hot routes additionally speak the binary
// application/x-locshort protocol (internal/wire), which moves the
// store's canonical payloads verbatim — negotiated per request with
// ordinary Content-Type/Accept headers, no flag needed. See OPERATIONS.md
// §Wire protocol.
//
// The API listener speaks HTTP/1.1 through the daemon's own connection
// loop (http1.go), which parses each request in the connection's read
// buffer and reuses one request and writer per connection; it accepts a
// subset of what net/http's server does and refuses the rest with 400,
// 417, 431, 501 or 505 (OPERATIONS.md §2). A request head must arrive
// within 10 s of its first byte; idle keep-alive connections do not
// time out.
//
// Usage:
//
//	locshortd [-addr 127.0.0.1:8080] [-workers N] [-cache N] [-queue N]
//	          [-async-queue N] [-async-workers N] [-retries N]
//	          [-data DIR] [-mmap=false]
//	          [-addrfile PATH] [-pprof ADDR]
//	          [-slow-request DUR] [-traces N] [-quiet]
//	          [-cluster-self HOST:PORT -cluster-peers H1:P1,H2:P2,...]
//	          [-cluster-vnodes N] [-cluster-replicas N] [-sync-interval DUR]
//
// Endpoints:
//
//	POST   /v1/graphs      ingest a graph (family spec or edge list) → fingerprint
//	GET    /v1/graphs      list registered graphs
//	DELETE /v1/graphs/{fp} evict a graph everywhere: registration, cache, store
//	POST   /v1/shortcuts   build-or-get a shortcut for (graph, partition, options)
//	POST   /v1/jobs        run mst | mincut | aggregate | measure
//	POST   /v1/batch       submit a list of requests asynchronously → 202 + job IDs
//	GET    /v1/jobs        list async jobs (?state= filters)
//	GET    /v1/jobs/{id}   fetch one async job (?wait= long-polls for completion)
//	DELETE /v1/jobs/{id}   cancel an async job
//	GET    /v1/stats       engine counters, async gauges, hit rate, uptime
//	GET    /v1/traces      recent build traces with per-stage timings (?n= bounds)
//	GET    /metrics        Prometheus text exposition of every subsystem
//	GET    /healthz        liveness: 200 once the listener is bound
//	GET    /readyz         readiness: 200 once warm start + job recovery finished
//
// The durable store replays its segments (store.Open) before the listener
// binds; only the graph decodes of the warm start and job recovery run
// behind the live listener, so /healthz and /readyz answer during them
// and /v1/ requests are rejected with 503 until /readyz flips. Every
// request is logged as a structured key=value line to stderr (suppress
// with -quiet); requests at or over -slow-request escalate to warn with
// the build's per-stage breakdown.
// See OPERATIONS.md §Monitoring for the metric catalog and scrape config.
//
// Any /v1/shortcuts or /v1/jobs body with "async": true — and every
// /v1/batch item — is accepted with 202 and a job ID instead of holding
// the connection for the build; the internal/jobs manager drains accepted
// work through the engine's worker pool and results are fetched via
// GET /v1/jobs/{id}. With -data, accepted jobs are durable: a restart
// re-enqueues queued and interrupted work and completed results stay
// fetchable.
//
// -cluster-self plus -cluster-peers (the full membership, identical on
// every node) turn a set of daemons into one consistent-hash cluster:
// every node accepts every request, shortcut builds route to the key's
// ring owner, ingested graphs replicate to all peers, cache misses try
// peer stores before rebuilding (response "source":"peer"), and a
// background anti-entropy loop (-sync-interval) pulls records each node
// should own but lacks, so replicas converge after a node dies or
// rejoins. A record fetched over the internal /v1/peer/ API has its graph
// and partition payloads re-hashed and its shortcut key re-derived, but
// the key does not cover the shortcut's edge sets: a corrupt or byzantine
// peer can cause a miss or substitute another tree-restricted shortcut
// under the same key (DESIGN.md §9). /readyz holds 503 while a reachable
// peer's ring configuration disagrees with this node's. Cluster mode
// requires -data.
// See OPERATIONS.md §9 for the cluster runbook.
//
// -data DIR makes the daemon durable: ingested graphs, built shortcuts,
// and async job records persist to the store in DIR, the graph catalog
// warm-starts on boot, and cache misses are served store-first — so a
// restart costs a store read per shortcut instead of a rebuild stampede.
// The store is the append-only segment store: every segment is
// memory-mapped read-only from the moment it becomes active, and binary
// responses serve their payloads as subslices of the mapping, zero-copy
// (a record of the active segment has its checksum checked in place);
// -mmap=false forces the portable pread path (fresh buffer, per-read
// checksum) if a platform or filesystem misbehaves under mmap. Without -data the daemon keeps no
// store and a restart starts empty. See OPERATIONS.md for the on-disk
// layout and the locshortctl runbook (backup, gc, verify, jobs).
//
// -addr :0 picks a free port; the bound address is printed on stdout and,
// with -addrfile, written to PATH so scripts (CI's smoke steps) can find
// the daemon without racing for a port. SIGINT/SIGTERM stop accepting,
// close idle connections and drain in-flight requests before exit;
// pending store writes are flushed before the process exits, so a clean
// shutdown never loses a completed build.
//
// -pprof ADDR serves net/http/pprof on a second listener (e.g.
// -pprof 127.0.0.1:6060) through net/http's own server, kept off the API
// listener so profiling is never exposed where the API is. Capture
// cold-build CPU and allocation profiles against the live daemon with
//
//	go tool pprof http://ADDR/debug/pprof/profile?seconds=10
//	go tool pprof http://ADDR/debug/pprof/allocs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"locshort/internal/cluster"
	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("locshortd: ", err)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a free port)")
		workers      = flag.Int("workers", 0, "job worker pool size (default GOMAXPROCS)")
		cacheCap     = flag.Int("cache", 0, "resident shortcut capacity (default 64)")
		queue        = flag.Int("queue", 0, "job queue depth (default 256)")
		asyncQueue   = flag.Int("async-queue", 0, "async job queue depth (default 1024)")
		asyncWorkers = flag.Int("async-workers", 0, "async dispatcher concurrency (default 4)")
		retries      = flag.Int("retries", 0, "re-runs of a failed async job before it is recorded failed")
		asyncKeep    = flag.Int("async-retention", 0, "terminal async job records kept in memory (default 4096; older results served from -data)")
		addrfile     = flag.String("addrfile", "", "write the bound address to this file")
		pprofA       = flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
		data         = flag.String("data", "", "durable store directory (empty: in-memory only)")
		mmapF        = flag.Bool("mmap", true, "memory-map store segments, the active one included, for zero-copy reads (-mmap=false forces pread)")
		slowReq      = flag.Duration("slow-request", 0, "warn with a build-stage breakdown for requests at least this slow (0: disabled)")
		traceCap     = flag.Int("traces", 128, "build traces retained for GET /v1/traces")
		quiet        = flag.Bool("quiet", false, "suppress per-request log lines (metrics and traces stay on)")

		clusterSelf  = flag.String("cluster-self", "", "this node's advertised host:port; enables cluster mode (requires -data)")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated full cluster membership, including -cluster-self; identical on every node")
		clusterVN    = flag.Int("cluster-vnodes", 64, "virtual nodes per member on the consistent-hash ring")
		clusterRepl  = flag.Int("cluster-replicas", 2, "nodes that hold each shortcut record (clamped to the membership size)")
		syncInterval = flag.Duration("sync-interval", 10*time.Second, "anti-entropy round cadence in cluster mode")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*traceCap)
	var logger *obs.Logger
	if !*quiet {
		logger = obs.NewLogger(os.Stderr)
	}

	cfg := service.Config{
		Workers:       *workers,
		CacheCapacity: *cacheCap,
		QueueDepth:    *queue,
		Obs:           reg,
		Tracer:        tracer,
		Logger:        logger,
	}
	var st *store.Store
	if *data != "" {
		var err error
		st, err = store.Open(*data, store.Options{Obs: reg, NoMmap: !*mmapF})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		defer st.Close()
		cfg.Store = st
	}

	// Cluster mode: build the node's ring view before the engine so the
	// engine's miss chain can reach peer stores (cache → store → peer →
	// build). The engine is wired back in as the graph registrar below.
	var cl *cluster.Cluster
	if *clusterSelf != "" {
		if st == nil {
			return fmt.Errorf("cluster mode requires a durable -data store (peers pull records from it)")
		}
		var nodes []string
		for _, n := range strings.Split(*clusterPeers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:         *clusterSelf,
			Nodes:        nodes,
			VNodes:       *clusterVN,
			Replication:  *clusterRepl,
			SyncInterval: *syncInterval,
			Store:        st,
			Obs:          reg,
			Logger:       logger,
		})
		if err != nil {
			return err
		}
		cfg.Peers = cl
	}

	eng := service.New(cfg)
	defer eng.Close()
	if cl != nil {
		cl.SetRegistrar(eng)
	}

	jcfg := jobs.Config{
		QueueDepth: *asyncQueue,
		Workers:    *asyncWorkers,
		Retries:    *retries,
		Retention:  *asyncKeep,
		Obs:        reg,
	}
	if st != nil {
		jcfg.Store = st
	}
	// ready gates the /v1/ API and GET /readyz: the listener binds after
	// the store replayed (above) and before warm start, so probes answer
	// while the graphs decode, and the flag flips only after warm start,
	// job recovery, and dispatcher start.
	var ready atomic.Bool
	readyFn := ready.Load
	if cl != nil {
		// In cluster mode readiness also requires ring-config agreement
		// with every reachable peer (see handleReadyz).
		readyFn = func() bool { return ready.Load() && !cl.Drift() }
	}
	srv, handler := newServer(eng, jcfg, serverOptions{
		reg:         reg,
		tracer:      tracer,
		logger:      logger,
		slowRequest: *slowReq,
		ready:       readyFn,
		cluster:     cl,
		store:       st,
	})
	mgr := srv.mgr
	// Close order (LIFO with the defers above): manager first, so
	// interrupted async runs go durably back to queued, then the engine
	// (drains detached persists), then the store.
	defer mgr.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Printf("locshortd listening on http://%s\n", bound)
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	if *pprofA != "" {
		pln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("locshortd pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); !errors.Is(err, http.ErrServerClosed) {
				log.Println("locshortd: pprof server:", err)
			}
		}()
	}

	hsrv := newHTTP1Server(handler, reg, logger)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()

	// Warm start and job recovery run behind the live listener: /healthz
	// and /readyz (503 "starting") answer while the stored graphs decode
	// and interrupted jobs re-enqueue, and /v1/ requests are rejected with
	// 503 until the flip below.
	if st != nil {
		loaded, err := eng.WarmStart()
		if err != nil {
			return fmt.Errorf("warm start: %w", err)
		}
		ss := st.OpenStats()
		log.Printf("locshortd: warm start from segment store (%s): %d graphs, %d shortcut records, %d job records (%d bytes)",
			*data, loaded, ss.Shortcuts, ss.Jobs, ss.Bytes)
		if ss.CorruptSkipped > 0 || ss.TruncatedBytes > 0 {
			log.Printf("locshortd: store repair on open: %d corrupt records skipped, %d bytes truncated",
				ss.CorruptSkipped, ss.TruncatedBytes)
		}
		// Recover after WarmStart: re-enqueued jobs reference graphs the
		// engine must already know.
		requeued, err := mgr.Recover()
		if err != nil {
			return fmt.Errorf("job recovery: %w", err)
		}
		if requeued > 0 {
			log.Printf("locshortd: re-enqueued %d interrupted async jobs", requeued)
		}
		if skipped := mgr.Stats().RecoverSkipped; skipped > 0 {
			log.Printf("locshortd: skipped %d undecodable job records (inspect with locshortctl)", skipped)
		}
	}
	mgr.Start()
	if cl != nil {
		// Synchronous config probe before the ready flip: a node booted
		// into a cluster whose reachable peers disagree on the ring never
		// reports ready. The anti-entropy loop re-probes every round, so
		// drift introduced (or healed) later moves readiness with it.
		drift, reachable := cl.CheckConfig(ctx)
		log.Printf("locshortd: cluster %s: %d members, %d peers reachable, drift=%v",
			cl.Self(), len(cl.Peers())+1, reachable, drift)
		cl.Start()
		defer cl.Stop()
	}
	ready.Store(true)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		log.Println("locshortd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hsrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
