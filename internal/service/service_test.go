package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

func testGraph(t *testing.T) (*graph.Graph, *partition.Partition) {
	t.Helper()
	g := graph.Grid(8, 8)
	p, err := partition.BFSBlobs(g, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestFingerprintGraphCanonical(t *testing.T) {
	// Same structure, different edge insertion order and orientation.
	a := graph.New(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddEdge(2, 3)
	b := graph.New(4)
	b.AddEdge(3, 2)
	b.AddEdge(1, 0)
	b.AddEdge(2, 1)
	if FingerprintGraph(a) != FingerprintGraph(b) {
		t.Error("edge order/orientation changed the fingerprint")
	}
	// A weight change must change it.
	c := graph.New(4)
	c.AddEdge(0, 1)
	c.AddWeightedEdge(1, 2, 2)
	c.AddEdge(2, 3)
	if FingerprintGraph(a) == FingerprintGraph(c) {
		t.Error("weight change did not change the fingerprint")
	}
	// A node-count change must change it.
	d := graph.New(5)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	if FingerprintGraph(a) == FingerprintGraph(d) {
		t.Error("node count change did not change the fingerprint")
	}
}

func TestFingerprintPartitionCanonical(t *testing.T) {
	g := graph.Path(6)
	p1, err := partition.New(g, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := partition.New(g, [][]int{{5, 4, 3}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintPartition(p1) != FingerprintPartition(p2) {
		t.Error("part order/node order changed the partition fingerprint")
	}
	p3, err := partition.New(g, [][]int{{0, 1}, {2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintPartition(p1) == FingerprintPartition(p3) {
		t.Error("different assignment produced the same fingerprint")
	}
}

func TestShortcutKeyCoversOptions(t *testing.T) {
	g := graph.Grid(4, 4)
	p, err := partition.BFSBlobs(g, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintGraph(g)
	base := ShortcutKey(fp, p, shortcut.Options{})
	if ShortcutKey(fp, p, shortcut.Options{}) != base {
		t.Error("shortcut key is not stable")
	}
	if ShortcutKey(fp, p, shortcut.Options{Delta: 4}) == base {
		t.Error("options change did not change the shortcut key")
	}
}

func TestFingerprintWireForm(t *testing.T) {
	fp := Fingerprint(0x0123456789abcdef)
	got, err := ParseFingerprint(fp.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Errorf("round trip %v != %v", got, fp)
	}
	for _, bad := range []string{"", "123", "zzzzzzzzzzzzzzzz", "0123456789abcdef0"} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q) succeeded, want error", bad)
		}
	}
}

// TestCacheSingleflight hammers one key from many goroutines and asserts
// exactly one build ran.
func TestCacheSingleflight(t *testing.T) {
	var metrics counters
	c := newCache(4, 8, &metrics)
	var builds atomic.Int64
	const waiters = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.getOrBuild(context.Background(), 42, func() (*Cached, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond)
				return &Cached{Key: 42}, nil
			})
			if err != nil || v == nil || v.Key != 42 {
				t.Errorf("getOrBuild = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want exactly 1", n)
	}
	if h, m := metrics.hits.Load(), metrics.misses.Load(); m != 1 || h != waiters-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", h, m, waiters-1)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	var metrics counters
	c := newCache(1, 4, &metrics)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, _, err := c.getOrBuild(context.Background(), 7, func() (*Cached, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 3 {
		t.Errorf("failed build cached: %d calls, want 3", calls)
	}
	if c.len() != 0 {
		t.Errorf("cache holds %d entries after failed builds", c.len())
	}
}

// TestCacheEviction fills the cache far past capacity under concurrency
// and checks the residency bound and eviction accounting.
func TestCacheEviction(t *testing.T) {
	var metrics counters
	const shards, capacity = 2, 4
	c := newCache(shards, capacity, &metrics)
	const keys = 64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k Fingerprint) {
			defer wg.Done()
			_, _, err := c.getOrBuild(context.Background(), k, func() (*Cached, error) {
				return &Cached{Key: k}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(Fingerprint(k))
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Errorf("resident entries = %d, want <= %d", n, capacity)
	}
	if ev := metrics.evictions.Load(); ev < keys-capacity {
		t.Errorf("evictions = %d, want >= %d", ev, keys-capacity)
	}
	// LRU: the most recently inserted keys of each shard survive; an
	// evicted key rebuilds.
	rebuilt := false
	c.getOrBuild(context.Background(), 0, func() (*Cached, error) {
		rebuilt = true
		return &Cached{}, nil
	})
	c.getOrBuild(context.Background(), 1, func() (*Cached, error) {
		rebuilt = true
		return &Cached{}, nil
	})
	if !rebuilt {
		t.Error("no early key was evicted out of 64 inserts into capacity 4")
	}
}

// TestCacheCancelMidBuild cancels a waiter while the build is in flight:
// the waiter returns promptly with ctx.Err(), the build completes anyway,
// and the next lookup is a hit.
func TestCacheCancelMidBuild(t *testing.T) {
	var metrics counters
	c := newCache(1, 4, &metrics)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(ctx, 9, func() (*Cached, error) {
			<-release
			return &Cached{Key: 9}, nil
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the build start
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	close(release)
	v, _, err := c.getOrBuild(context.Background(), 9, func() (*Cached, error) {
		t.Error("abandoned build did not populate the cache")
		return nil, nil
	})
	if err != nil || v.Key != 9 {
		t.Fatalf("post-cancel lookup = %v, %v", v, err)
	}
}

// TestEngineSingleflight is the end-to-end variant: concurrent Build calls
// for one (graph, partition, options) trigger exactly one construction.
func TestEngineSingleflight(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	g, p := testGraph(t)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	keys := make([]Fingerprint, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
			if err != nil {
				t.Error(err)
				return
			}
			keys[i] = c.Key
		}(i)
	}
	wg.Wait()
	s := e.Stats()
	if s.Builds != 1 {
		t.Errorf("Builds = %d, want exactly 1", s.Builds)
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("divergent shortcut keys: %v vs %v", k, keys[0])
		}
	}
	if s.CacheHits != callers-1 || s.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", s.CacheHits, s.CacheMisses, callers-1)
	}
}

// TestEngineKeyRequest drives requests that carry a key and a partition
// spec instead of a partition, the way locshortd sends a memoized spec: a
// miss parses the spec and builds; a warm hit allocates nothing, with or
// without a partition; a stored record serves a key-only request on a
// fresh engine without building; a spec that hashes to another key, and a
// request with neither a partition nor a key and a spec, are errors.
func TestEngineKeyRequest(t *testing.T) {
	ctx := context.Background()
	st := newStubStore()
	e := New(Config{Workers: 2, Store: st})
	var closeOnce sync.Once
	t.Cleanup(func() { closeOnce.Do(e.Close) })
	g := graph.Grid(8, 8)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.ParsePartition(g, "blobs:8", 3)
	if err != nil {
		t.Fatal(err)
	}
	key := ShortcutKey(fp, p, shortcut.Options{})
	req := BuildRequest{Graph: fp, Key: key, Spec: "blobs:8", Seed: 3}
	c, hit, err := e.Build(ctx, req)
	if err != nil || hit || c.Source != SourceBuilt || c.Key != key {
		t.Fatalf("key request miss: hit=%v err=%v entry=%+v", hit, err, c)
	}
	if FingerprintPartition(c.Parts) != FingerprintPartition(p) {
		t.Fatal("the spec parsed inside the engine is not the caller's partition")
	}
	for name, r := range map[string]BuildRequest{
		"key": req, "parts": {Graph: fp, Parts: p},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, hit, err := e.Build(ctx, r); err != nil || !hit {
				t.Fatalf("%s warm hit: hit=%v err=%v", name, hit, err)
			}
		}); n != 0 {
			t.Errorf("%s warm hit: %.1f allocs/op, want 0", name, n)
		}
	}
	closeOnce.Do(e.Close) // drains the detached persist into st

	fresh := newTestEngine(t, Config{Workers: 2, Store: st})
	if _, err := fresh.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	c, _, err = fresh.Build(ctx, req)
	if err != nil || c.Source != SourceStore {
		t.Fatalf("key request on a stored record: err=%v entry=%+v", err, c)
	}
	if s := fresh.Stats(); s.Builds != 0 {
		t.Errorf("stored record rebuilt: %d builds", s.Builds)
	}
	for name, r := range map[string]BuildRequest{
		"spec for another key": {Graph: fp, Key: key ^ 1, Spec: "blobs:8", Seed: 3},
		"no partition":         {Graph: fp},
		"key without spec":     {Graph: fp, Key: key ^ 2},
	} {
		if _, _, err := fresh.Build(ctx, r); err == nil {
			t.Errorf("%s: Build succeeded, want an error", name)
		}
	}
}

func TestEngineJobsAgainstReferences(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	g, p := testGraph(t)
	graph.RandomizeWeights(g, rand.New(rand.NewSource(3)))
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	c, _, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Measure(ctx, c.Key)
	if err != nil {
		t.Fatal(err)
	}
	if q.CoveredParts != p.NumParts() {
		t.Errorf("covered %d of %d parts", q.CoveredParts, p.NumParts())
	}

	mst, err := e.MST(ctx, MSTRequest{Graph: fp})
	if err != nil {
		t.Fatal(err)
	}
	_, want := graph.Kruskal(g)
	if math.Abs(mst.Weight-want) > 1e-9 {
		t.Errorf("MST weight %v, want %v", mst.Weight, want)
	}

	// MinCut uses unit capacities; check it on an unweighted graph.
	unit := graph.Grid(8, 8)
	ufp, err := e.AddGraph(unit)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := e.MinCut(ctx, MinCutRequest{Graph: ufp, Options: dist.MinCutOptions{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.StoerWagner(unit)
	if err != nil {
		t.Fatal(err)
	}
	if float64(mc.Value) != ref {
		t.Errorf("MinCut = %d, want %v", mc.Value, ref)
	}

	agg, err := e.Aggregate(ctx, AggregateRequest{Shortcut: c.Key, Op: dist.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range p.Parts {
		if got := agg.PartResult[i][0]; got != int64(len(part)) {
			t.Errorf("part %d aggregate = %d, want size %d", i, got, len(part))
		}
	}
}

func TestEngineUnknownReferences(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	_, p := testGraph(t)
	ctx := context.Background()
	if _, _, err := e.Build(ctx, BuildRequest{Graph: 1, Parts: p}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Build unknown graph: %v", err)
	}
	if _, err := e.MST(ctx, MSTRequest{Graph: 1}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("MST unknown graph: %v", err)
	}
	if _, err := e.Aggregate(ctx, AggregateRequest{Shortcut: 1}); !errors.Is(err, ErrUnknownShortcut) {
		t.Errorf("Aggregate unknown shortcut: %v", err)
	}
	if _, err := e.Measure(ctx, 1); !errors.Is(err, ErrUnknownShortcut) {
		t.Errorf("Measure unknown shortcut: %v", err)
	}
}

func TestEngineQueuedJobCancellation(t *testing.T) {
	// One worker, occupied by a slow job: a second job canceled while
	// queued must return ctx.Err() without running.
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	block := make(chan struct{})
	go submit(e, context.Background(), func(context.Context) (int, error) {
		<-block
		return 0, nil
	})
	time.Sleep(10 * time.Millisecond) // let the slow job occupy the worker
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := submit(e, ctx, func(context.Context) (int, error) {
		ran = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(block)
	if ran {
		t.Error("canceled queued job still ran")
	}
}

func TestEngineCloseRejects(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	_, err := submit(e, context.Background(), func(context.Context) (int, error) { return 1, nil })
	if !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestEngineAddGraphDeduplicates(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	a := graph.Grid(4, 4)
	b := graph.Grid(4, 4)
	fa, err := e.AddGraph(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := e.AddGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("same content, different fingerprints: %v vs %v", fa, fb)
	}
	got, ok := e.Graph(fa)
	if !ok || got != a {
		t.Error("representative graph is not the first registered instance")
	}
	if s := e.Stats(); s.Graphs != 1 {
		t.Errorf("Graphs = %d, want 1", s.Graphs)
	}
}

// MeasureCached must keep working on a held entry after eviction, while
// key-addressed Measure correctly reports the entry gone — the
// build-then-measure sequence of the locshortd /v1/shortcuts handler.
func TestMeasureCachedSurvivesEviction(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, CacheCapacity: 1, CacheShards: 1})
	g, p := testGraph(t)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	held, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	// A second distinct shortcut on a capacity-1 shard evicts the first.
	p2, err := partition.BFSBlobs(g, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Shortcut(held.Key); ok {
		t.Fatal("first entry still resident; eviction did not happen")
	}
	if _, err := e.Measure(context.Background(), held.Key); !errors.Is(err, ErrUnknownShortcut) {
		t.Errorf("Measure on evicted key = %v, want ErrUnknownShortcut", err)
	}
	q, err := e.MeasureCached(context.Background(), held)
	if err != nil {
		t.Fatalf("MeasureCached on held evicted entry: %v", err)
	}
	if q.CoveredParts != p.NumParts() {
		t.Errorf("quality covers %d parts, want %d", q.CoveredParts, p.NumParts())
	}
}

// stubStore is an in-memory service.Store for engine-integration tests,
// independent of the real internal/store implementation (which has its own
// suite plus an httptest e2e in cmd/locshortd).
type stubStore struct {
	mu        sync.Mutex
	graphs    map[Fingerprint]*graph.Graph
	shortcuts map[Fingerprint]*shortcut.Result
	times     map[Fingerprint]time.Duration
	puts      int
	gets      int
	failPuts  bool
}

func newStubStore() *stubStore {
	return &stubStore{
		graphs:    make(map[Fingerprint]*graph.Graph),
		shortcuts: make(map[Fingerprint]*shortcut.Result),
		times:     make(map[Fingerprint]time.Duration),
	}
}

func (s *stubStore) PutGraph(fp Fingerprint, g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graphs[fp] = g
	return nil
}

func (s *stubStore) EachGraph(fn func(Fingerprint, *graph.Graph) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for fp, g := range s.graphs {
		if err := fn(fp, g); err != nil {
			return err
		}
	}
	return nil
}

func (s *stubStore) PutShortcut(key, graphFP Fingerprint, parts *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.failPuts {
		return errors.New("stub: put failed")
	}
	s.shortcuts[key] = res
	s.times[key] = buildTime
	return nil
}

func (s *stubStore) GetShortcut(key Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	res, ok := s.shortcuts[key]
	if !ok {
		return nil, 0, false, nil
	}
	return res, s.times[key], true, nil
}

func (s *stubStore) DeleteGraph(fp Fingerprint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.graphs, fp)
	return nil
}

// TestEngineStorePersistAndWarmStart drives the full durability cycle
// through the engine against the stub: persist on build, warm-start a
// second engine, serve the key store-first without rebuilding.
func TestEngineStorePersistAndWarmStart(t *testing.T) {
	st := newStubStore()
	g, p := testGraph(t)

	e1 := New(Config{Workers: 2, Store: st})
	fp, err := e1.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := e1.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Source != SourceBuilt {
		t.Errorf("first build source = %v, want SourceBuilt", c1.Source)
	}
	e1.Close() // drains the detached persist
	if st.puts != 1 {
		t.Fatalf("store saw %d shortcut puts, want 1", st.puts)
	}
	s1 := e1.Stats()
	if s1.StoreWrites != 1 || s1.StoreMisses != 1 || s1.StoreHits != 0 {
		t.Errorf("first engine store stats = writes %d misses %d hits %d, want 1/1/0",
			s1.StoreWrites, s1.StoreMisses, s1.StoreHits)
	}

	e2 := newTestEngine(t, Config{Workers: 2, Store: st})
	n, err := e2.WarmStart()
	if err != nil || n != 1 {
		t.Fatalf("WarmStart = (%d, %v), want (1, nil)", n, err)
	}
	if infos := e2.Graphs(); len(infos) != 1 || infos[0].Fingerprint != fp {
		t.Fatalf("Graphs() after warm start = %+v", infos)
	}
	c2, hit, err := e2.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	if hit || c2.Source != SourceStore {
		t.Errorf("post-restart build hit=%v source=%v, want miss served from store", hit, c2.Source)
	}
	if c2.BuildTime != c1.BuildTime {
		t.Errorf("store hit BuildTime %v, want original %v", c2.BuildTime, c1.BuildTime)
	}
	s2 := e2.Stats()
	if s2.Builds != 0 || s2.StoreHits != 1 {
		t.Errorf("post-restart stats: builds %d store hits %d, want 0 and 1", s2.Builds, s2.StoreHits)
	}
	// Now resident: the next request is a cache hit, no store read.
	gets := st.gets
	if _, hit, _ := e2.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); !hit {
		t.Error("second post-restart request not a cache hit")
	}
	if st.gets != gets {
		t.Error("cache hit consulted the store")
	}
}

// TestEngineRemoveGraph asserts RemoveGraph evicts the registration, the
// cached shortcuts, and the store records, and 404s afterwards.
func TestEngineRemoveGraph(t *testing.T) {
	st := newStubStore()
	e := newTestEngine(t, Config{Workers: 2, Store: st})
	g, p := testGraph(t)
	fp, _ := e.AddGraph(g)
	if _, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); err != nil {
		t.Fatal(err)
	}
	evicted, err := e.RemoveGraph(fp)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 {
		t.Errorf("evicted %d cached shortcuts, want 1", evicted)
	}
	if _, ok := e.Graph(fp); ok {
		t.Error("graph still registered after RemoveGraph")
	}
	if len(e.Graphs()) != 0 {
		t.Error("Graphs() not empty after RemoveGraph")
	}
	st.mu.Lock()
	_, inStore := st.graphs[fp]
	st.mu.Unlock()
	if inStore {
		t.Error("store still holds the graph after RemoveGraph")
	}
	if _, err := e.RemoveGraph(fp); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("second RemoveGraph = %v, want ErrUnknownGraph", err)
	}
	if _, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("build after removal = %v, want ErrUnknownGraph", err)
	}
	if e.Stats().CachedEntries != 0 {
		t.Error("cache not empty after RemoveGraph")
	}
}

// TestEngineStoreWriteFailureCounted asserts persistence failures are
// observable in Stats but never fail the build.
func TestEngineStoreWriteFailureCounted(t *testing.T) {
	st := newStubStore()
	st.failPuts = true
	e := New(Config{Workers: 2, Store: st})
	g, p := testGraph(t)
	fp, _ := e.AddGraph(g)
	if _, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); err != nil {
		t.Fatalf("build failed on store write error: %v", err)
	}
	e.Close()
	if s := e.Stats(); s.StoreErrors != 1 || s.StoreWrites != 0 {
		t.Errorf("store stats = errors %d writes %d, want 1 and 0", s.StoreErrors, s.StoreWrites)
	}
}

// stubPeerFetcher is an in-memory service.PeerFetcher: a canned response
// plus a call counter, independent of internal/cluster (which has its own
// suite plus the cmd/locshortd multi-node e2e).
type stubPeerFetcher struct {
	mu    sync.Mutex
	calls int
	res   *shortcut.Result
	bt    time.Duration
	ok    bool
	err   error
}

func (f *stubPeerFetcher) FetchShortcut(ctx context.Context, key Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.res, f.bt, f.ok, f.err
}

// TestEnginePeerFetchHit: a peer hit serves the entry with Source "peer",
// skips the construction entirely, and is NOT re-persisted by the engine
// (the fetcher contract says the implementation already imported it).
func TestEnginePeerFetchHit(t *testing.T) {
	g, p := testGraph(t)
	res, err := shortcut.Build(g, p, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newStubStore()
	pf := &stubPeerFetcher{res: res, bt: 77 * time.Millisecond, ok: true}
	e := newTestEngine(t, Config{Workers: 2, Store: st, Peers: pf})
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	c, hit, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	if c.Source != SourcePeer || c.Source.String() != "peer" {
		t.Fatalf("source = %v (%q), want SourcePeer", c.Source, c.Source.String())
	}
	if c.BuildTime != 77*time.Millisecond {
		t.Fatalf("peer build time not preserved: %v", c.BuildTime)
	}
	s := e.Stats()
	if s.Builds != 0 {
		t.Fatalf("builds = %d, want 0 (peer hit must not construct)", s.Builds)
	}
	if s.PeerHits != 1 || s.PeerMisses != 0 || s.PeerErrors != 0 {
		t.Fatalf("peer counters = %d/%d/%d, want 1/0/0", s.PeerHits, s.PeerMisses, s.PeerErrors)
	}
	st.mu.Lock()
	puts := st.puts
	st.mu.Unlock()
	if puts != 0 {
		t.Fatalf("engine persisted a peer-fetched entry (%d puts); the fetcher owns durability", puts)
	}
	// Second request: resident cache hit, the fetcher is not consulted again.
	if _, hit, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); err != nil || !hit {
		t.Fatalf("second request: hit=%v err=%v", hit, err)
	}
	pf.mu.Lock()
	calls := pf.calls
	pf.mu.Unlock()
	if calls != 1 {
		t.Fatalf("fetcher consulted %d times, want 1", calls)
	}
}

// TestEnginePeerFetchMissAndError: a clean miss falls through to the
// construction and counts PeerMisses; a fetch error also falls through but
// counts PeerErrors — the request must never fail because peers did.
func TestEnginePeerFetchMissAndError(t *testing.T) {
	for _, tc := range []struct {
		name string
		pf   *stubPeerFetcher
	}{
		{"miss", &stubPeerFetcher{ok: false}},
		{"error", &stubPeerFetcher{err: errors.New("stub: peers unreachable")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, p := testGraph(t)
			e := newTestEngine(t, Config{Workers: 2, Peers: tc.pf})
			fp, err := e.AddGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
			if err != nil {
				t.Fatalf("build must survive a peer %s: %v", tc.name, err)
			}
			if c.Source != SourceBuilt {
				t.Fatalf("source = %v, want SourceBuilt", c.Source)
			}
			s := e.Stats()
			if s.Builds != 1 {
				t.Fatalf("builds = %d, want 1", s.Builds)
			}
			if tc.name == "miss" && (s.PeerMisses != 1 || s.PeerErrors != 0) {
				t.Fatalf("peer counters = misses %d errors %d, want 1/0", s.PeerMisses, s.PeerErrors)
			}
			if tc.name == "error" && (s.PeerErrors != 1 || s.PeerMisses != 0) {
				t.Fatalf("peer counters = misses %d errors %d, want 0/1", s.PeerMisses, s.PeerErrors)
			}
		})
	}
}
