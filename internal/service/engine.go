package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/cli"
	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// Config tunes an Engine. The zero value selects sensible defaults.
type Config struct {
	// Workers is the size of the job worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (default 256); submission blocks once the queue is full.
	QueueDepth int
	// CacheCapacity bounds the number of resident built shortcuts
	// (default 64, split across shards).
	CacheCapacity int
	// CacheShards is rounded up to a power of two (default 16).
	CacheShards int
	// Store, when non-nil, makes builds durable: graphs persist on
	// registration, built shortcuts persist after construction (detached,
	// off the serving path), cache misses consult the store before
	// rebuilding, and WarmStart re-registers every persisted graph on
	// boot. A nil Store keeps the engine fully in-memory.
	Store Store
	// Peers, when non-nil, extends the miss chain with a cluster peer-fetch
	// step: local cache → local store → peer store → cold build, all behind
	// the singleflight, so a restart stampede or a cross-node miss costs at
	// most one peer round-trip per key. internal/cluster provides the
	// implementation; a nil Peers keeps the engine single-node.
	Peers PeerFetcher

	// The Async* knobs configure the internal/jobs manager layered on
	// this engine (locshortd builds one from them; see jobs.Config for the
	// semantics and defaults). The engine itself schedules only
	// synchronous jobs and never reads these — they live here so one
	// Config describes the whole serving stack, mirroring how Stats
	// carries the manager's gauges.

	// AsyncQueueDepth bounds accepted-but-unstarted async jobs
	// (default 1024); submissions past it are rejected with 429, unlike
	// the engine's own QueueDepth, which blocks.
	AsyncQueueDepth int
	// AsyncWorkers is the async dispatcher concurrency (default 4): how
	// many async jobs occupy engine workers at once.
	AsyncWorkers int
	// AsyncRetries is how many times a failed async job is re-run before
	// it is recorded failed (default 0).
	AsyncRetries int
	// AsyncRetention bounds terminal async job records kept in memory
	// (default 4096); older results are served from the durable store.
	AsyncRetention int

	// Obs, when non-nil, is the metrics registry the engine registers its
	// families into: func-backed counters/gauges over the existing atomic
	// Stats counters (read at scrape time, so the hot path never
	// dual-writes) plus build/load/persist/measure/job latency histograms
	// and the aggregated Builder stage histograms. Warm cache hits record
	// through pre-resolved histogram pointers and stay allocation-free.
	Obs *obs.Registry
	// Tracer, when non-nil, retains a stage trace per shortcut
	// construction: store check, every doubling-search level, the accepted
	// level's sweep/assemble split, and the first quality measurement. The
	// trace is assembled on the cold path only (Options.CollectStages is
	// forced on for instrumented builds) and published when the entry is
	// first measured.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 64
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	return c
}

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("service: engine closed")

// ErrUnknownGraph is returned when a request references a fingerprint that
// was never registered with this engine.
var ErrUnknownGraph = errors.New("service: unknown graph fingerprint")

// ErrUnknownShortcut is returned when a job references a shortcut key that
// is not resident in the cache.
var ErrUnknownShortcut = errors.New("service: unknown shortcut key")

// Cached is a built shortcut resident in the engine's cache, together with
// lazily materialized derived state: measured quality and installed
// part-wise aggregation routing. Both are computed at most once per cache
// residency and shared by every subsequent request.
type Cached struct {
	// Key is the shortcut's content address; GraphFP the graph's.
	Key     Fingerprint
	GraphFP Fingerprint
	// G and Parts are the inputs the shortcut was built from (G is the
	// engine's representative graph for GraphFP). An entry loaded from a
	// stored or a peer's record without a request partition carries the
	// record's own partition, in canonical part order.
	G     *graph.Graph
	Parts *partition.Partition
	// Result is the shortcut.Build outcome.
	Result *shortcut.Result
	// BuildTime is the wall-clock cost of the construction that populated
	// this entry — what a cache hit saves. For Source == SourceStore it is
	// the recorded cost of the original construction, not of the load.
	BuildTime time.Duration
	// Source records whether this entry was built or loaded from the
	// durable store.
	Source BuildSource

	qualityOnce sync.Once
	qualityDone atomic.Bool
	quality     shortcut.Quality
	routingOnce sync.Once
	routing     *dist.PARouting
	routingErr  error

	// trace is the construction's pending stage trace (nil when tracing is
	// off); the first Quality call appends the "measure" span, publishes to
	// tracer, and clears it. qualityOnce guarantees a single publisher.
	trace      *obs.TraceBuilder
	tracer     *obs.Tracer
	engMetrics *engineMetrics
}

// Quality measures the shortcut, memoized for the cache residency. The
// first call completes and publishes the entry's construction trace, so a
// trace's total duration spans build start through first measurement.
func (c *Cached) Quality() shortcut.Quality {
	c.qualityOnce.Do(func() {
		start := time.Now()
		c.quality = shortcut.Measure(c.Result.Shortcut)
		d := time.Since(start)
		if m := c.engMetrics; m != nil {
			m.measureSeconds.Observe(d)
		}
		if c.trace != nil {
			c.trace.Add("measure", c.trace.Elapsed()-d, d)
			c.tracer.Publish(c.trace.Finish())
			c.trace = nil
		}
		c.qualityDone.Store(true)
	})
	return c.quality
}

// QualityIfReady returns the memoized quality without blocking or
// scheduling anything: ok is false until some earlier call has measured
// the entry. The serving path uses it to skip the worker-pool round trip
// on warm hits — once measured, the quality is one atomic load away. The
// quality field is written before the qualityDone store inside the same
// Once, so an observer of true observes the value.
func (c *Cached) QualityIfReady() (shortcut.Quality, bool) {
	if !c.qualityDone.Load() {
		return shortcut.Quality{}, false
	}
	return c.quality, true
}

// Routing installs (once) and returns the part-wise aggregation routing.
func (c *Cached) Routing() (*dist.PARouting, error) {
	c.routingOnce.Do(func() { c.routing, c.routingErr = dist.NewPARouting(c.Result.Shortcut) })
	return c.routing, c.routingErr
}

// Engine is the concurrent shortcut-serving engine. All exported methods
// are safe for concurrent use; query methods block until a worker has
// executed the job, the context is canceled, or the engine closes.
type Engine struct {
	cfg   Config
	cache *cache
	jobs  chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex
	graphs map[Fingerprint]*graph.Graph

	// builders pools shortcut.Builders across cold builds: a Builder owns
	// the flat scratch of the Theorem 3.1 construction (part-set tables,
	// epoch-stamped slices, per-level states of the speculative doubling
	// search), so concurrent cold builds stop re-allocating it per
	// request. Builders are not safe for concurrent use; the pool hands
	// each build an exclusive one. Note the CPU bound: with the default
	// speculative search each cold build may run up to GOMAXPROCS level
	// goroutines, so a burst can occupy Workers x GOMAXPROCS goroutines
	// (measurably faster end to end under loadgen, since losing levels
	// abandon at their next iteration); deployments that need strict
	// Workers-bounded CPU set BuildRequest.Options.Parallelism = 1 — the
	// built shortcut is identical either way.
	builders sync.Pool

	// persists tracks detached store writes so Close can drain them: a
	// build's durability must not be lost to a racing shutdown.
	persists sync.WaitGroup

	counters counters
	// metrics is nil unless Config.Obs was set; every record site
	// nil-checks it, so the uninstrumented engine pays one branch.
	metrics *engineMetrics
}

// New starts an engine with cfg's worker pool and cache.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		jobs:   make(chan *job, cfg.QueueDepth),
		quit:   make(chan struct{}),
		graphs: make(map[Fingerprint]*graph.Graph),
	}
	e.builders.New = func() any { return shortcut.NewBuilder() }
	e.cache = newCache(cfg.CacheShards, cfg.CacheCapacity, &e.counters)
	if cfg.Obs != nil {
		e.metrics = newEngineMetrics(cfg.Obs, e)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops the worker pool and drains detached store writes. In-flight
// jobs finish; queued and future submissions fail with ErrClosed. Close is
// idempotent per engine lifetime and must not be called twice. When a Store
// is configured, every build that completed before Close returns is durably
// persisted (or counted in Stats.StoreErrors).
func (e *Engine) Close() {
	close(e.quit)
	e.wg.Wait()
	e.persists.Wait()
}

// Stats returns an atomic snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.counters.snapshot()
	s.CachedEntries = e.cache.len()
	e.mu.RLock()
	s.Graphs = len(e.graphs)
	e.mu.RUnlock()
	return s
}

// AddGraph validates and registers g under its content fingerprint and
// returns the fingerprint. The first graph registered for a fingerprint
// becomes the representative all jobs run against; re-registering the same
// content is a cheap no-op that returns the same fingerprint. Registered
// graphs are pinned for the engine's lifetime (only built shortcuts are
// LRU-bounded); deployments with unbounded distinct-graph traffic should
// recycle engines or front them with an ingest quota.
func (e *Engine) AddGraph(g *graph.Graph) (Fingerprint, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	fp := FingerprintGraph(g)
	e.mu.Lock()
	_, known := e.graphs[fp]
	if !known {
		e.graphs[fp] = g
	}
	e.mu.Unlock()
	// Persist newly registered content synchronously: ingest is rare and
	// cheap relative to builds, and answering only after the record is on
	// disk means a fingerprint handed to a client survives a restart.
	// Persistence failures are surfaced in Stats.StoreErrors, not to the
	// caller — the in-memory registration above already succeeded.
	if st := e.cfg.Store; st != nil && !known {
		if err := st.PutGraph(fp, g); err != nil {
			e.counters.storeErrs.Add(1)
		}
	}
	return fp, nil
}

// AddGraphDecoded registers a graph that arrived in canonical binary form,
// skipping the validation and fingerprinting AddGraph pays: g must be the
// decode of payload and fp the fingerprint of its body, which is exactly
// what store.DecodeGraphPayload establishes (structural validation plus
// the content-hash check). The canonical payload is persisted verbatim
// when the store supports it (GraphPayloadStore), so binary ingest never
// re-encodes what it just decoded; other stores fall back to PutGraph.
// Registration semantics match AddGraph: first registration wins, known
// content is a cheap no-op, persistence failures surface in
// Stats.StoreErrors rather than to the caller.
func (e *Engine) AddGraphDecoded(fp Fingerprint, g *graph.Graph, payload []byte) {
	e.mu.Lock()
	_, known := e.graphs[fp]
	if !known {
		e.graphs[fp] = g
	}
	e.mu.Unlock()
	if st := e.cfg.Store; st != nil && !known {
		var err error
		if ps, ok := st.(GraphPayloadStore); ok {
			err = ps.PutGraphPayload(fp, payload)
		} else {
			err = st.PutGraph(fp, g)
		}
		if err != nil {
			e.counters.storeErrs.Add(1)
		}
	}
}

// WarmStart re-registers every graph persisted in the configured store and
// returns how many were loaded. Shortcuts are deliberately not preloaded:
// the store-first miss path of Build serves them lazily, so boot cost is
// proportional to the graph catalog, not to the shortcut history, and the
// LRU fills with what traffic actually asks for. Call once, before serving.
func (e *Engine) WarmStart() (int, error) {
	st := e.cfg.Store
	if st == nil {
		return 0, nil
	}
	loaded := 0
	err := st.EachGraph(func(fp Fingerprint, g *graph.Graph) error {
		e.mu.Lock()
		if _, ok := e.graphs[fp]; !ok {
			e.graphs[fp] = g
			loaded++
		}
		e.mu.Unlock()
		return nil
	})
	return loaded, err
}

// GraphInfo describes one registered graph for listings.
type GraphInfo struct {
	Fingerprint Fingerprint
	Nodes       int
	Edges       int
}

// Graphs lists the registered graphs sorted by fingerprint.
func (e *Engine) Graphs() []GraphInfo {
	e.mu.RLock()
	out := make([]GraphInfo, 0, len(e.graphs))
	for fp, g := range e.graphs {
		out = append(out, GraphInfo{Fingerprint: fp, Nodes: g.NumNodes(), Edges: g.NumEdges()})
	}
	e.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// RemoveGraph evicts a graph everywhere: the registration, every resident
// cached shortcut built on it, and (when a Store is configured) the durable
// records. It returns the number of cached shortcuts evicted, or
// ErrUnknownGraph if fp was never registered. A build in flight for the
// graph when RemoveGraph is called may still complete and briefly re-enter
// the cache; it can no longer be requested again (the registration is gone)
// and ages out of the LRU like any cold entry.
func (e *Engine) RemoveGraph(fp Fingerprint) (int, error) {
	e.mu.Lock()
	_, ok := e.graphs[fp]
	delete(e.graphs, fp)
	e.mu.Unlock()
	if !ok {
		return 0, ErrUnknownGraph
	}
	evicted := e.cache.removeGraph(fp)
	if st := e.cfg.Store; st != nil {
		if err := st.DeleteGraph(fp); err != nil {
			e.counters.storeErrs.Add(1)
			return evicted, err
		}
	}
	return evicted, nil
}

// Graph returns the representative graph for fp.
func (e *Engine) Graph(fp Fingerprint) (*graph.Graph, bool) {
	e.mu.RLock()
	g, ok := e.graphs[fp]
	e.mu.RUnlock()
	return g, ok
}

// Shortcut returns the resident cached shortcut for key without building.
func (e *Engine) Shortcut(key Fingerprint) (*Cached, bool) {
	return e.cache.peek(key)
}

// job is one unit of worker-pool work. run executes with the submitter's
// context; done is closed when the job has finished (or been skipped
// because its context was already canceled at pickup).
type job struct {
	ctx  context.Context
	run  func(context.Context)
	done chan struct{}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case j := <-e.jobs:
			e.counters.queueDepth.Add(-1)
			if j.ctx.Err() != nil {
				e.counters.jobsCanceled.Add(1)
				close(j.done)
				continue
			}
			e.counters.running.Add(1)
			start := time.Now()
			j.run(j.ctx)
			d := time.Since(start)
			e.counters.jobNs.Add(d.Nanoseconds())
			if e.metrics != nil {
				e.metrics.jobSeconds.Observe(d)
			}
			e.counters.running.Add(-1)
			close(j.done)
		}
	}
}

// errSkipped marks a job the worker skipped at pickup because its context
// was already canceled. It is unexported, so no fn can return it.
var errSkipped = errors.New("skipped")

// submit runs fn on the worker pool and waits for it, honoring ctx while
// queued or running and failing fast once the engine closes. A context
// canceled mid-run abandons the wait; the worker still finishes fn.
func submit[T any](e *Engine, ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	var res T
	err := errSkipped // overwritten unless the job is skipped at pickup
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.run = func(ctx context.Context) { res, err = fn(ctx) }
	e.counters.queueDepth.Add(1)
	select {
	case e.jobs <- j:
	case <-ctx.Done():
		e.counters.queueDepth.Add(-1)
		return zero, ctx.Err()
	case <-e.quit:
		e.counters.queueDepth.Add(-1)
		return zero, ErrClosed
	}
	select {
	case <-j.done:
		if err == errSkipped {
			return zero, ctx.Err()
		}
		if err != nil {
			e.counters.jobsFailed.Add(1)
			return zero, err
		}
		e.counters.jobsDone.Add(1)
		return res, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-e.quit:
		return zero, ErrClosed
	}
}

// BuildRequest asks for a shortcut on a registered graph. The partition
// comes as Parts, or — when the caller already holds the shortcut key —
// as Key plus the spec that makes it: then the engine serves a resident
// entry, a stored or a peer's record (each decoded with the record's own
// partition) and parses Spec only if it must construct.
type BuildRequest struct {
	// Graph is the fingerprint returned by AddGraph.
	Graph Fingerprint
	// Key is ShortcutKey(Graph, partition, Options) when the caller has it
	// already; zero derives it from Parts.
	Key Fingerprint
	// Parts is the partition to cover (validated against the
	// representative graph by partition construction). It may be nil
	// when Key and Spec are set.
	Parts *partition.Partition
	// Spec and Seed are the internal/cli partition spec a construction
	// parses (cli.ParsePartition) when Parts is nil. The partition it
	// makes must hash to Key.
	Spec string
	Seed int64
	// Options configures shortcut.Build. Tree, Certify, and Rng must be
	// unset: the service owns tree choice and never certifies.
	Options shortcut.Options
}

// Build returns the cached shortcut for the request, constructing it at
// most once per cache residency regardless of how many concurrent callers
// ask (singleflight). The construction itself runs on the worker pool.
// hit reports whether the shortcut was already built when the request
// arrived (the fast path a cache hit buys); singleflight joiners that
// waited for an in-flight build report hit=false. A hit allocates
// nothing here: the miss closure is made only on a miss.
func (e *Engine) Build(ctx context.Context, req BuildRequest) (c *Cached, hit bool, err error) {
	if req.Options.Tree != nil || req.Options.Certify || req.Options.Rng != nil {
		return nil, false, fmt.Errorf("service: BuildRequest options must not set Tree, Certify, or Rng")
	}
	g, ok := e.Graph(req.Graph)
	if !ok {
		return nil, false, ErrUnknownGraph
	}
	key := req.Key
	switch {
	case req.Parts != nil:
		if len(req.Parts.PartOf) != g.NumNodes() {
			return nil, false, fmt.Errorf("service: partition covers %d nodes, graph has %d",
				len(req.Parts.PartOf), g.NumNodes())
		}
		if key == 0 {
			key = ShortcutKey(req.Graph, req.Parts, req.Options)
		}
	case key == 0 || req.Spec == "":
		return nil, false, fmt.Errorf("service: BuildRequest needs a partition, or a key and a partition spec")
	}
	if c, ok := e.cache.get(key); ok {
		return c, true, nil
	}
	return e.miss(ctx, key, g, req)
}

// miss is Build past a cache miss: its own function, because the closure
// it hands getOrBuild captures req, which moves req to the heap on entry.
func (e *Engine) miss(ctx context.Context, key Fingerprint, g *graph.Graph, req BuildRequest) (*Cached, bool, error) {
	return e.cache.getOrBuild(ctx, key, func() (*Cached, error) {
		// The build job deliberately detaches from the triggering caller's
		// cancellation: every waiter (including the first) abandons
		// individually via getOrBuild, while the construction itself runs
		// to completion and warms the cache.
		return submit(e, context.WithoutCancel(ctx), func(jctx context.Context) (*Cached, error) {
			return e.materialize(jctx, key, g, req)
		})
	})
}

// materialize produces the entry for key behind the singleflight, on a
// worker: from the store, else from a peer, else by construction.
func (e *Engine) materialize(jctx context.Context, key Fingerprint, g *graph.Graph, req BuildRequest) (*Cached, error) {
	// The trace (when tracing is on) is assembled here, behind the
	// singleflight, so every construction yields exactly one trace no
	// matter how many callers joined the build. It is published on the
	// entry's first quality measurement (locshortd measures immediately
	// after building), which contributes the final "measure" span.
	var tb *obs.TraceBuilder
	if e.cfg.Tracer != nil {
		tb = obs.StartTrace("build")
		tb.SetFingerprint(key.String())
	}
	entry := func(res *shortcut.Result, bt time.Duration, src BuildSource) *Cached {
		return &Cached{
			Key:        key,
			GraphFP:    req.Graph,
			G:          g,
			Parts:      res.Shortcut.Parts,
			Result:     res,
			BuildTime:  bt,
			Source:     src,
			trace:      tb,
			tracer:     e.cfg.Tracer,
			engMetrics: e.metrics,
		}
	}
	// Store-first: a persisted build from a previous process (or one
	// evicted from the LRU) is reloaded instead of rebuilt. This sits
	// behind the singleflight, so a restart stampede on one key costs one
	// store read, not N rebuilds. Without a request partition the record
	// is decoded with its own. A failed load falls through to a fresh
	// construction.
	if st := e.cfg.Store; st != nil {
		loadStart := time.Now()
		res, bt, ok, err := st.GetShortcut(key, g, req.Parts)
		loadDur := time.Since(loadStart)
		if tb != nil {
			tb.Add("store_check", 0, loadDur)
		}
		switch {
		case err != nil:
			e.counters.storeErrs.Add(1)
		case ok:
			e.counters.storeHits.Add(1)
			if e.metrics != nil {
				e.metrics.loadSeconds.Observe(loadDur)
			}
			return entry(res, bt, SourceStore), nil
		default:
			e.counters.storeMisses.Add(1)
		}
	}
	// Peer-fetch: after the local store misses, ask the key's replica
	// peers before paying a cold construction. Behind the singleflight
	// like the store check, so a cross-node miss stampede costs one peer
	// round-trip. The fetcher re-verifies every payload against its
	// fingerprints and imports the record into the local store itself —
	// no detached persist here. A fetch error (unreachable peers, failed
	// verification) falls through to a fresh construction: the cluster
	// degrades to building locally, never to failing the request.
	if pf := e.cfg.Peers; pf != nil {
		// jctx: the build job is detached from the triggering caller, and
		// so is its peer fetch — the fetcher applies its own per-peer
		// timeouts.
		fetchStart := time.Now()
		res, bt, ok, err := pf.FetchShortcut(jctx, key, g, req.Parts)
		fetchDur := time.Since(fetchStart)
		if tb != nil {
			tb.Add("peer_fetch", tb.Elapsed()-fetchDur, fetchDur)
		}
		switch {
		case err != nil:
			e.counters.peerErrs.Add(1)
		case ok:
			e.counters.peerHits.Add(1)
			if e.metrics != nil {
				e.metrics.peerFetchSeconds.Observe(fetchDur)
			}
			return entry(res, bt, SourcePeer), nil
		default:
			e.counters.peerMisses.Add(1)
		}
	}
	parts := req.Parts
	if parts == nil {
		var err error
		if parts, err = cli.ParsePartition(g, req.Spec, req.Seed); err != nil {
			return nil, err
		}
		if got := ShortcutKey(req.Graph, parts, req.Options); got != key {
			return nil, fmt.Errorf("service: partition spec %q seed %d hashes to key %s, request names %s",
				req.Spec, req.Seed, got, key)
		}
	}
	bld := e.builders.Get().(*shortcut.Builder)
	defer e.builders.Put(bld)
	buildOpts := req.Options
	if tb != nil {
		// Timing-only: CollectStages never changes the shortcut and is
		// excluded from content addressing, so key still matches.
		buildOpts.CollectStages = true
	}
	start := time.Now()
	res, err := bld.Build(g, parts, buildOpts)
	if err != nil {
		e.counters.buildErrs.Add(1)
		return nil, err
	}
	d := time.Since(start)
	e.counters.builds.Add(1)
	e.counters.buildNs.Add(d.Nanoseconds())
	if e.metrics != nil {
		e.metrics.buildSeconds.Observe(d)
		e.metrics.observeStages(res.Stages)
	}
	if tb != nil {
		// Stage offsets are relative to the Build call; shift them onto
		// the trace clock.
		off := tb.Elapsed() - d
		for _, st := range res.Stages {
			tb.Add(st.Name, off+st.Start, st.Dur)
		}
	}
	if st := e.cfg.Store; st != nil {
		// Persist detached, like the build itself: the caller's response
		// is not delayed by the fsync, the write happens exactly once per
		// construction (we are behind the singleflight), and Close drains
		// the WaitGroup so a clean shutdown never loses a completed build.
		// The goroutine takes the two fields it needs, not req: capturing
		// req would move it to the heap on every call, store hits too.
		graphFP, opts := req.Graph, req.Options
		e.persists.Add(1)
		go func() {
			defer e.persists.Done()
			pStart := time.Now()
			if err := st.PutShortcut(key, graphFP, parts, opts, res, d); err != nil {
				e.counters.storeErrs.Add(1)
			} else {
				e.counters.storeWrites.Add(1)
				if e.metrics != nil {
					e.metrics.persistSeconds.Observe(time.Since(pStart))
				}
			}
		}()
	}
	return entry(res, d, SourceBuilt), nil
}

// MSTRequest runs the Corollary 1.6 distributed MST on a registered graph.
type MSTRequest struct {
	Graph   Fingerprint
	Options dist.MSTOptions
}

// MST executes the request on the worker pool.
func (e *Engine) MST(ctx context.Context, req MSTRequest) (*dist.MSTResult, error) {
	g, ok := e.Graph(req.Graph)
	if !ok {
		return nil, ErrUnknownGraph
	}
	return submit(e, ctx, func(context.Context) (*dist.MSTResult, error) {
		return dist.MST(g, req.Options)
	})
}

// MinCutRequest runs the Corollary 1.7 distributed minimum cut.
type MinCutRequest struct {
	Graph   Fingerprint
	Options dist.MinCutOptions
}

// MinCut executes the request on the worker pool.
func (e *Engine) MinCut(ctx context.Context, req MinCutRequest) (*dist.MinCutResult, error) {
	g, ok := e.Graph(req.Graph)
	if !ok {
		return nil, ErrUnknownGraph
	}
	return submit(e, ctx, func(context.Context) (*dist.MinCutResult, error) {
		return dist.MinCut(g, req.Options)
	})
}

// AggregateRequest runs one part-wise aggregation round over a cached
// shortcut's installed routing.
type AggregateRequest struct {
	// Shortcut is a key previously returned by Build.
	Shortcut Fingerprint
	Op       dist.Op
	// Values holds one payload per node; nil aggregates the constant 1
	// per part member (so OpSum counts part sizes).
	Values []dist.Payload
	// Seed drives the randomized contention schedule.
	Seed int64
}

// Aggregate executes the request on the worker pool against the cached
// shortcut — the amortization the cache exists for: one build, many rounds.
func (e *Engine) Aggregate(ctx context.Context, req AggregateRequest) (*dist.PAResult, error) {
	c, ok := e.Shortcut(req.Shortcut)
	if !ok {
		return nil, ErrUnknownShortcut
	}
	return submit(e, ctx, func(context.Context) (*dist.PAResult, error) {
		r, err := c.Routing()
		if err != nil {
			return nil, err
		}
		values := req.Values
		if values == nil {
			// Constant 1 per node: only part members are read by the
			// schedule, so OpSum yields part sizes.
			values = make([]dist.Payload, c.G.NumNodes())
			for v := range values {
				values[v] = dist.Payload{1, 1, 1}
			}
		}
		if len(values) != c.G.NumNodes() {
			return nil, fmt.Errorf("service: %d values for %d nodes", len(values), c.G.NumNodes())
		}
		maxRounds := 64*c.G.NumNodes() + 4096
		return dist.PartwiseAggregate(c.G, r, req.Op, values, req.Seed, true, maxRounds)
	})
}

// Measure returns the memoized quality of a cached shortcut, computing it
// on the worker pool on first request.
func (e *Engine) Measure(ctx context.Context, key Fingerprint) (shortcut.Quality, error) {
	c, ok := e.Shortcut(key)
	if !ok {
		return shortcut.Quality{}, ErrUnknownShortcut
	}
	return e.MeasureCached(ctx, c)
}

// MeasureCached is Measure on an already-held cache entry. Unlike Measure
// it needs no key lookup, so build-then-measure sequences (the locshortd
// /v1/shortcuts handler) stay immune to the entry being evicted between
// the two steps under capacity pressure.
func (e *Engine) MeasureCached(ctx context.Context, c *Cached) (shortcut.Quality, error) {
	return submit(e, ctx, func(context.Context) (shortcut.Quality, error) {
		return c.Quality(), nil
	})
}
