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
	// Each worker keeps one shortcut.Builder, its scratch sized to the
	// largest graph that worker has built, and drops that scratch at its
	// next task after RemoveGraph unregisters a graph.
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

	// Obs, when non-nil, is the metrics registry the engine registers its
	// families into: func-backed counters/gauges over the existing atomic
	// Stats counters (read at scrape time, so the hot path never
	// dual-writes) plus build/load/persist/measure/job latency histograms
	// and the aggregated Builder stage histograms. Warm cache hits record
	// through pre-resolved histogram pointers and stay allocation-free.
	Obs *obs.Registry
	// Tracer, when non-nil, retains a stage trace per cache fill that goes
	// past the store: store check, peer fetch, every doubling-search level,
	// the accepted level's sweep/assemble split and, when the fill measured
	// (BuildRequest.Measure), the measurement. The fill publishes it before
	// it releases its waiters. A store hit publishes a trace (store check
	// and measurement) only when its fill measured it. The trace is
	// assembled on the cold path only (Options.CollectStages is forced on
	// for instrumented builds).
	Tracer *obs.Tracer
	// Logger, when non-nil, logs the stack of a panic in a detached store
	// persist, once per panic. Nil counts the panic (Stats.PersistPanics)
	// without logging it.
	Logger *obs.Logger
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
// part-wise aggregation routing. Each is computed to completion at most
// once per cache residency and shared by every subsequent request; a
// computation that panics leaves it unset, and the next request computes
// it again.
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

	qualityMemo memo
	quality     shortcut.Quality
	routingMemo memo
	routing     *dist.PARouting
	routingErr  error
}

// Quality measures the shortcut, memoized for the cache residency. A
// measurement that panics memoizes nothing: the panic reaches the caller,
// and the next call measures again.
func (c *Cached) Quality() shortcut.Quality {
	c.measure(nil)
	return c.quality
}

// measure measures the shortcut into c.quality unless a measurement has
// completed, and reports whether this call measured and how long it took.
// The engine's two measuring sites, a fill and MeasureCached, pass their
// metrics, so the call that measures observes it in
// locshort_engine_measure_seconds.
func (c *Cached) measure(m *engineMetrics) (d time.Duration, ok bool) {
	ok = c.qualityMemo.do(func() {
		start := time.Now()
		c.quality = shortcut.Measure(c.Result.Shortcut)
		d = time.Since(start)
	})
	if ok && m != nil {
		m.measureSeconds.Observe(d)
	}
	return d, ok
}

// QualityIfReady returns the memoized quality without blocking or
// scheduling anything: ok is false until some earlier call has measured
// the entry. The serving path uses it to skip the worker-pool round trip
// on warm hits, and on the first answer of a fill that measured — once
// measured, the quality is one atomic load away. The quality is written
// before the memo's done flag, so an observer of true observes the value.
func (c *Cached) QualityIfReady() (shortcut.Quality, bool) {
	if !c.qualityMemo.done.Load() {
		return shortcut.Quality{}, false
	}
	return c.quality, true
}

// Routing installs (once) and returns the part-wise aggregation routing,
// over the shortcut's parts in canonical order (by lowest node ID), so an
// aggregation answers for the key alone, however the entry was filled. An
// installation that returns an error is memoized like a routing; one that
// panics is not, and the next call installs again.
func (c *Cached) Routing() (*dist.PARouting, error) {
	c.routingMemo.do(func() {
		var s *shortcut.Shortcut
		if s, c.routingErr = canonicalOrder(c.Result.Shortcut); c.routingErr == nil {
			c.routing, c.routingErr = dist.NewPARouting(s)
		}
	})
	return c.routing, c.routingErr
}

// canonicalOrder returns s with its parts renumbered to canonical order
// (partition.FromLabels numbers them by first appearance over nodes), each
// part's nodes ascending; H and Covered move with their parts.
func canonicalOrder(s *shortcut.Shortcut) (*shortcut.Shortcut, error) {
	p, err := partition.FromLabels(s.G, s.Parts.PartOf)
	if err != nil {
		return nil, err
	}
	c := *s
	c.Parts, c.H, c.Covered = p, make([][]int, p.NumParts()), make([]bool, p.NumParts())
	for i, r := range s.Parts.CanonicalRanks(nil) {
		c.H[r], c.Covered[r] = s.H[i], s.Covered[i]
	}
	return &c, nil
}

// memo runs a function to completion at most once, like sync.Once, except
// that a run that panics does not count: the panic propagates to its
// caller, and the next call runs the function again. Concurrent callers
// wait for a run in progress.
type memo struct {
	mu   sync.Mutex
	done atomic.Bool
}

// do runs fn unless a run has completed, and reports whether this call
// ran it.
func (m *memo) do(fn func()) bool {
	if m.done.Load() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done.Load() {
		return false
	}
	fn()
	m.done.Store(true)
	return true
}

// Engine is the concurrent shortcut-serving engine. All exported methods
// are safe for concurrent use; query methods block until a worker has
// executed the job, the context is canceled, or the engine closes.
type Engine struct {
	cfg   Config
	cache *cache
	jobs  chan task
	quit  chan struct{}
	// wg counts the engine's goroutines: the workers, and any fill send
	// waiting for room in a full queue.
	wg sync.WaitGroup

	mu     sync.RWMutex
	graphs map[Fingerprint]*graph.Graph
	// removals counts the graphs RemoveGraph has unregistered. A worker
	// that sees it move drops its Builder's scratch, which may be sized to
	// the removed graph.
	removals atomic.Uint64

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
		jobs:   make(chan task, cfg.QueueDepth),
		quit:   make(chan struct{}),
		graphs: make(map[Fingerprint]*graph.Graph),
	}
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
// jobs finish; queued and future submissions fail with ErrClosed, and so
// does every waiter of a cache fill still queued (nothing is cached for
// it). Close must not be called twice. When a Store is configured, every
// build that completed before Close returns is durably persisted (or
// counted in Stats.StoreErrors, a panicking persist in
// Stats.PersistPanics too).
func (e *Engine) Close() {
	close(e.quit)
	e.wg.Wait()
	// Every worker and every waiting send has exited, so no one runs what
	// is left in the queue.
	for drained := false; !drained; {
		select {
		case t := <-e.jobs:
			e.counters.queueDepth.Add(-1)
			t.drop(e)
		default:
			drained = true
		}
	}
	e.persists.Wait()
}

// closed reports whether Close has begun.
//
//locshort:hotpath
func (e *Engine) closed() bool {
	select {
	case <-e.quit:
		return true
	default:
		return false
	}
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

// AddGraph validates g (refusing NaN weights) and registers its canonical
// form, graph.Canonical(g), under its content fingerprint, which it
// returns. That form is the representative all jobs run against, however
// the graph arrived, so edge IDs in results refer to Graph(fp), which may
// be a different instance from g. Re-registering the same content is a
// cheap no-op that returns the same fingerprint. A registered graph stays
// until RemoveGraph unregisters it (only built shortcuts are LRU-bounded);
// deployments with unbounded distinct-graph traffic should delete graphs,
// recycle engines or front them with an ingest quota.
func (e *Engine) AddGraph(g *graph.Graph) (Fingerprint, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	g = graph.Canonical(g)
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
// the content-hash check), and a decode is in canonical form already. The
// canonical payload is persisted verbatim (Store.PutGraphPayload), so
// binary ingest never re-encodes what it just decoded.
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
		if err := st.PutGraphPayload(fp, payload); err != nil {
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
	e.removals.Add(1)
	evicted := e.cache.removeGraph(fp)
	if st := e.cfg.Store; st != nil {
		if err := st.DeleteGraph(fp); err != nil {
			e.counters.storeErrs.Add(1)
			return evicted, err
		}
	}
	return evicted, nil
}

// Graph returns the representative graph for fp, in canonical form.
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

// task is what the worker queue carries: a submitted *job, or the
// *cacheEntry of a cache miss, which is its own fill job.
type task interface {
	// run executes the task on a worker. A fill constructs on bld, the
	// worker's Builder, and empties it after a panic (materializeEntry).
	run(e *Engine, bld *shortcut.Builder)
	// drop discards the task unrun, because the engine closed.
	drop(e *Engine)
}

// job is one submitted unit of worker-pool work. fn executes with the
// submitter's context; done is closed when the job has finished (or been
// skipped because its context was already canceled at pickup).
type job struct {
	ctx  context.Context
	fn   func(context.Context)
	done chan struct{}
}

// worker runs tasks until Close. Its fills all construct on one Builder,
// whose scratch grows to the largest graph the worker has built; a fill
// starts no goroutine of its own, so Workers bounds both the CPU and the
// scratch that builds use. After RemoveGraph unregisters a graph, the
// worker empties its Builder before its next task, so no scratch sized to
// a removed graph outlives that task's pickup.
func (e *Engine) worker() {
	defer e.wg.Done()
	bld, removals := shortcut.NewBuilder(), e.removals.Load()
	for {
		select {
		case <-e.quit:
			return
		case t := <-e.jobs:
			e.counters.queueDepth.Add(-1)
			if e.closed() {
				// Picked in the same instant Close began: Close drops
				// what is still queued, and this task with it.
				t.drop(e)
				return
			}
			if n := e.removals.Load(); n != removals {
				*bld, removals = shortcut.Builder{}, n
			}
			t.run(e, bld)
		}
	}
}

// jobStarted and jobFinished bracket a task's execution in the job
// counters: running_jobs, job_total_ns and the job histogram.
func (e *Engine) jobStarted() time.Time {
	e.counters.running.Add(1)
	return time.Now()
}

func (e *Engine) jobFinished(start time.Time) {
	d := time.Since(start)
	e.counters.jobNs.Add(d.Nanoseconds())
	if e.metrics != nil {
		e.metrics.jobSeconds.Observe(d)
	}
	e.counters.running.Add(-1)
}

// run executes the job, or skips it if its context was canceled while it
// was queued.
func (j *job) run(e *Engine, _ *shortcut.Builder) {
	if j.ctx.Err() != nil {
		e.counters.jobsCanceled.Add(1)
	} else {
		start := e.jobStarted()
		j.fn(j.ctx)
		e.jobFinished(start)
	}
	close(j.done)
}

// drop leaves the job unrun: its submitter has returned ErrClosed.
func (j *job) drop(*Engine) {}

// run fills the entry on bld in one job, which measures it when the
// request that installed it asked (BuildRequest.Measure) and publishes its
// trace. The fill is detached from every caller, so it always runs; its
// trace and job counters are settled before its waiters are released, and
// a resident entry keeps no request.
func (ent *cacheEntry) run(e *Engine, bld *shortcut.Builder) {
	start := e.jobStarted()
	err := e.materializeEntry(ent, bld)
	e.jobFinished(start)
	if err != nil {
		e.counters.jobsFailed.Add(1)
	} else {
		e.counters.jobsDone.Add(1)
	}
	ent.g, ent.req = nil, BuildRequest{}
	e.cache.fill(ent, err)
}

// drop fails the fill: its waiters get ErrClosed, and nothing is cached.
func (ent *cacheEntry) drop(e *Engine) { e.cache.fill(ent, ErrClosed) }

// materializeEntry runs a fill's materialize into the entry's value, on
// bld. A panic fails this entry alone, as the job's *obs.PanicError: the
// worker lives on with bld emptied, since the panic may have left the
// scratch half written; nothing is cached, and the next request for the
// key fills afresh.
func (e *Engine) materializeEntry(ent *cacheEntry, bld *shortcut.Builder) (err error) {
	defer func() {
		if v := recover(); v != nil {
			e.counters.jobPanics.Add(1)
			*bld = shortcut.Builder{}
			err = obs.Recovered(v)
		}
	}()
	return e.materialize(&ent.val, ent.key, ent.g, &ent.req, bld)
}

// measureFill measures a fill's entry on the fill's worker. A panic fails
// the measurement alone: it counts in job_panics, the entry is cached
// unmeasured, and the JSON answer that asked measures again through
// MeasureCached — which fails that answer with the panic if it recurs.
func (e *Engine) measureFill(c *Cached) (d time.Duration, ok bool) {
	defer func() {
		if recover() != nil {
			e.counters.jobPanics.Add(1)
		}
	}()
	return c.measure(e.metrics)
}

// errSkipped marks a job the worker skipped at pickup because its context
// was already canceled. It is unexported, so no fn can return it.
var errSkipped = errors.New("skipped")

// submit runs fn on the worker pool and waits for it, honoring ctx while
// queued or running and failing fast once the engine closes. A context
// canceled mid-run abandons the wait; the worker still finishes fn. A
// panic in fn is recovered on the worker and returned as the job's
// *obs.PanicError.
func submit[T any](e *Engine, ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	var res T
	err := errSkipped // overwritten unless the job is skipped at pickup
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.fn = func(ctx context.Context) {
		// A panicking fn fails its own job, not the process: the worker
		// goroutine lives on, and the caller gets an *obs.PanicError.
		defer func() {
			if v := recover(); v != nil {
				e.counters.jobPanics.Add(1)
				err = obs.Recovered(v)
			}
		}()
		res, err = fn(ctx)
	}
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
	// Measure asks a fill this request starts to measure the entry
	// (Cached.Quality) on the fill's worker before it releases its
	// waiters, so a JSON answer is one worker job and finds the quality
	// with QualityIfReady. A binary answer, which reports no quality,
	// leaves it unset. It measures nothing on a hit, or when the request
	// joins a fill another request started without it: the entry may
	// come back unmeasured, and a caller that needs the quality falls
	// back to MeasureCached. It is not part of the shortcut's key.
	Measure bool
}

// Build returns the cached shortcut for the request, constructing it at
// most once per cache residency regardless of how many concurrent callers
// ask (singleflight). The construction itself runs on the worker pool.
// hit reports whether the shortcut was already built when the request
// arrived (the fast path a cache hit buys); singleflight joiners that
// waited for an in-flight build report hit=false. A hit allocates
// nothing here.
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

// miss is Build past a cache miss. It joins key's in-flight entry, or
// installs one and queues it as its own fill job; then it waits for the
// entry, its context or Close, whichever comes first. The fill is detached
// from every caller, so any waiter, the first included, can give up
// without aborting it: the result still lands in the cache.
//
//locshort:hotpath
func (e *Engine) miss(ctx context.Context, key Fingerprint, g *graph.Graph, req BuildRequest) (*Cached, bool, error) {
	ent, done, fresh := e.cache.join(key)
	if done {
		c, err := ent.value()
		return c, true, err
	}
	if fresh {
		ent.g, ent.req = g, req
		e.enqueue(ent)
	}
	select {
	case <-ent.ready:
		c, err := ent.value()
		return c, false, err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-e.quit:
		return nil, false, ErrClosed
	}
}

// enqueue puts a fresh entry on the worker queue as its fill job. Only
// when the queue is full does the send wait, on a goroutine of its own, so
// no caller waits on the queue past its context.
//
//locshort:hotpath
func (e *Engine) enqueue(ent *cacheEntry) {
	if e.closed() {
		ent.drop(e)
		return
	}
	e.counters.queueDepth.Add(1)
	select {
	case e.jobs <- ent:
	default:
		e.wg.Add(1)
		//locshort:alloc-ok a full queue: the send waits on its own goroutine
		go e.enqueueWait(ent)
	}
}

// enqueueWait is enqueue's send to a full queue. If the engine closes
// first, the fill fails with ErrClosed.
func (e *Engine) enqueueWait(ent *cacheEntry) {
	defer e.wg.Done()
	select {
	case e.jobs <- ent:
	case <-e.quit:
		e.counters.queueDepth.Add(-1)
		ent.drop(e)
	}
}

// materialize produces the entry for key behind the singleflight, on a
// worker, into c, its cache entry's value: from the store, else from a
// peer, else by construction on bld. It measures the entry when req asks.
func (e *Engine) materialize(c *Cached, key Fingerprint, g *graph.Graph, req *BuildRequest, bld *shortcut.Builder) error {
	// The trace (when tracing is on) is assembled here, behind the
	// singleflight, so every miss yields at most one trace no matter how
	// many callers joined it, and fill publishes it. A construction or a
	// peer fetch always publishes one, with a final "measure" span when the
	// fill measured. Until the miss does more than a store check, only its
	// start and the check's duration are kept: a store hit makes its trace
	// only when its fill measures it.
	var (
		tb         *obs.TraceBuilder
		storeCheck time.Duration
	)
	missStart := time.Now()
	// trace makes the miss's trace once, when tracing is on, backdated to
	// the miss's start, with the store check as its first span.
	trace := func() {
		if tb == nil && e.cfg.Tracer != nil {
			tb = obs.StartTrace("build", missStart)
			tb.SetFingerprint(key.String())
			if e.cfg.Store != nil {
				tb.Add("store_check", 0, storeCheck)
			}
		}
	}
	fill := func(res *shortcut.Result, bt time.Duration, src BuildSource) {
		c.Key, c.GraphFP, c.G, c.Parts, c.Result = key, req.Graph, g, res.Shortcut.Parts, res
		c.BuildTime, c.Source = bt, src
		if req.Measure {
			if d, ok := e.measureFill(c); ok {
				trace()
				tb.Add("measure", tb.Elapsed()-d, d)
			}
		}
		e.cfg.Tracer.Publish(tb.Finish())
	}
	// Store-first: a persisted build from a previous process (or one
	// evicted from the LRU) is reloaded instead of rebuilt. This sits
	// behind the singleflight, so a restart stampede on one key costs one
	// store read, not N rebuilds. Without a request partition the record
	// is decoded with its own. A failed load falls through to a fresh
	// construction.
	if st := e.cfg.Store; st != nil {
		res, bt, ok, err := st.GetShortcut(key, g, req.Parts)
		storeCheck = time.Since(missStart)
		switch {
		case err != nil:
			e.counters.storeErrs.Add(1)
		case ok:
			e.counters.storeHits.Add(1)
			if e.metrics != nil {
				e.metrics.loadSeconds.Observe(storeCheck)
			}
			fill(res, bt, SourceStore)
			return nil
		default:
			e.counters.storeMisses.Add(1)
		}
	}
	// Past the store, the miss does work worth a trace: make it now.
	trace()
	// Peer-fetch: after the local store misses, ask the key's replica
	// peers before paying a cold construction. Behind the singleflight
	// like the store check, so a cross-node miss stampede costs one peer
	// round-trip. The fetcher re-verifies every payload against its
	// fingerprints and imports the record into the local store itself —
	// no detached persist here. A fetch error (unreachable peers, failed
	// verification) falls through to a fresh construction: the cluster
	// degrades to building locally, never to failing the request.
	if pf := e.cfg.Peers; pf != nil {
		// The fill is detached from every caller, and so is its peer
		// fetch: the fetcher applies its own per-peer timeouts.
		fetchStart := time.Now()
		res, bt, ok, err := pf.FetchShortcut(context.Background(), key, g, req.Parts)
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
			fill(res, bt, SourcePeer)
			return nil
		default:
			e.counters.peerMisses.Add(1)
		}
	}
	parts := req.Parts
	if parts == nil {
		var err error
		if parts, err = cli.ParsePartition(g, req.Spec, req.Seed); err != nil {
			return err
		}
		if got := ShortcutKey(req.Graph, parts, req.Options); got != key {
			return fmt.Errorf("service: partition spec %q seed %d hashes to key %s, request names %s",
				req.Spec, req.Seed, got, key)
		}
	}
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
		return err
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
			// A panic in the encode or the store fails this persist, not
			// the process: nothing above a detached goroutine recovers it.
			defer func() {
				if v := recover(); v != nil {
					e.counters.storeErrs.Add(1)
					e.counters.persistPanics.Add(1)
					pe := obs.Recovered(v)
					e.cfg.Logger.Error("persist_panic", "shortcut", key.String(),
						"err", pe.Error(), "stack", string(pe.Stack))
				}
			}()
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
	fill(res, d, SourceBuilt)
	return nil
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
// The result indexes parts in canonical order (Cached.Routing).
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
// it needs no key lookup, so build-then-measure sequences stay immune to
// the entry being evicted between the two steps under capacity pressure.
// The locshortd /v1/shortcuts handler calls it only for an entry no one
// has measured (a fill that a BuildRequest with Measure started has): a
// JSON answer on an entry a binary answer's fill made. A measurement that
// panics fails the job with an *obs.PanicError, and the next call
// measures again.
func (e *Engine) MeasureCached(ctx context.Context, c *Cached) (shortcut.Quality, error) {
	return submit(e, ctx, func(context.Context) (shortcut.Quality, error) {
		c.measure(e.metrics)
		return c.quality, nil
	})
}
