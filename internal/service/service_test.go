package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/congest"
	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/obs"
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

// getOrBuild drives the cache the way Engine.miss does, with a goroutine
// running build, which fills the entry's value, in place of the worker
// that fills a fresh entry.
func getOrBuild(ctx context.Context, c *cache, key Fingerprint, build func(*Cached) error) (*Cached, bool, error) {
	ent, done, fresh := c.join(key)
	if done {
		v, err := ent.value()
		return v, true, err
	}
	if fresh {
		go func() { c.fill(ent, build(&ent.val)) }()
	}
	select {
	case <-ent.ready:
		v, err := ent.value()
		return v, false, err
	case <-ctx.Done():
		return nil, false, ctx.Err()
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
			v, _, err := getOrBuild(context.Background(), c, 42, func(v *Cached) error {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond)
				v.Key = 42
				return nil
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
		_, _, err := getOrBuild(context.Background(), c, 7, func(*Cached) error {
			calls++
			return boom
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
			_, _, err := getOrBuild(context.Background(), c, k, func(v *Cached) error {
				v.Key = k
				return nil
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
	getOrBuild(context.Background(), c, 0, func(*Cached) error {
		rebuilt = true
		return nil
	})
	getOrBuild(context.Background(), c, 1, func(*Cached) error {
		rebuilt = true
		return nil
	})
	if !rebuilt {
		t.Error("no early key was evicted out of 64 inserts into capacity 4")
	}
}

// lruKeys lists a shard's resident keys from the most to the least
// recently used, after checking that the list reads the same backward,
// that every entry on it is resident and in the map, and that it holds n
// entries.
func lruKeys(t *testing.T, s *cacheShard) []Fingerprint {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var fwd, back []Fingerprint
	for e := s.head; e != nil; e = e.next {
		if !e.resident || s.m[e.key] != e {
			t.Fatalf("entry %d is on the LRU list but not resident in the map", e.key)
		}
		fwd = append(fwd, e.key)
	}
	for e := s.tail; e != nil; e = e.prev {
		back = append(back, e.key)
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != s.n {
		t.Fatalf("LRU list forward %v, backward %v, count %d", fwd, back, s.n)
	}
	return fwd
}

// TestCacheLRUOrder pins the eviction order of the intrusive LRU list: a
// fill makes its entry the most recently used, get, peek and a join of a
// completed entry touch it, a fill past capacity evicts the least
// recently used, removeGraph unlinks what it drops, and len counts what
// stays.
func TestCacheLRUOrder(t *testing.T) {
	var metrics counters
	c := newCache(1, 3, &metrics)
	s := c.shards[0]
	put := func(key, graphFP Fingerprint) {
		t.Helper()
		if _, _, err := getOrBuild(context.Background(), c, key, func(v *Cached) error {
			v.Key, v.GraphFP = key, graphFP
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(step string, keys ...Fingerprint) {
		t.Helper()
		if got := lruKeys(t, s); !slices.Equal(got, keys) {
			t.Fatalf("after %s: LRU %v, want %v", step, got, keys)
		}
		if c.len() != len(keys) {
			t.Fatalf("after %s: len %d, want %d", step, c.len(), len(keys))
		}
	}
	put(1, 100)
	put(2, 100)
	put(3, 200)
	want("three fills", 3, 2, 1)
	if v, ok := c.get(1); !ok || v.Key != 1 {
		t.Fatalf("get(1) = %v, %v", v, ok)
	}
	want("get(1)", 1, 3, 2)
	put(4, 200)
	want("a fourth fill", 4, 1, 3)
	if _, ok := c.peek(2); ok {
		t.Fatal("evicted key 2 still resident")
	}
	if v, ok := c.peek(3); !ok || v.Key != 3 {
		t.Fatalf("peek(3) = %v, %v", v, ok)
	}
	want("peek(3)", 3, 4, 1)
	if e, done, fresh := c.join(4); !done || fresh || e.val.Key != 4 {
		t.Fatalf("join(4) = %v, done %v, fresh %v", e, done, fresh)
	}
	want("join(4)", 4, 3, 1)
	put(5, 100)
	want("a fifth fill", 5, 4, 3)
	if n := c.removeGraph(200); n != 2 {
		t.Fatalf("removeGraph(200) removed %d, want 2", n)
	}
	want("removeGraph(200)", 5)
	put(6, 100)
	put(7, 100)
	put(8, 100)
	want("three more fills", 8, 7, 6)
	if ev := metrics.evictions.Load(); ev != 3 {
		t.Errorf("evictions = %d, want 3 (keys 2, 1 and 5)", ev)
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
		_, _, err := getOrBuild(ctx, c, 9, func(v *Cached) error {
			<-release
			v.Key = 9
			return nil
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
	v, _, err := getOrBuild(context.Background(), c, 9, func(*Cached) error {
		t.Error("abandoned build did not populate the cache")
		return nil
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
	rank := p.CanonicalRanks(nil)
	for i, part := range p.Parts {
		if got := agg.PartResult[rank[i]][0]; got != int64(len(part)) {
			t.Errorf("part %d (rank %d) aggregate = %d, want size %d", i, rank[i], got, len(part))
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

// TestEnginePanicFailsJob submits a panicking function to the worker pool,
// then a Build that panics in the construction on the worker itself (a
// part naming a node the graph does not have), then a job that simulates
// a CONGEST protocol on 64 nodes, as MST, MinCut and Aggregate jobs do,
// with a Step that panics on one of the simulator's round workers. Each
// comes back as that job's *obs.PanicError, with the stack where the
// panic began, and the engine keeps serving.
func TestEnginePanicFailsJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the simulator's worker path
	e := newTestEngine(t, Config{Workers: 1})
	_, err := submit(e, context.Background(), func(context.Context) (int, error) { panic("boom") })
	var pe *obs.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panicking job returned %v, want an *obs.PanicError for boom with a stack", err)
	}

	g, p := testGraph(t)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := &partition.Partition{PartOf: make([]int, g.NumNodes()), Parts: [][]int{{g.NumNodes() + 5}}}
	_, _, err = e.Build(context.Background(), BuildRequest{Graph: fp, Parts: bad})
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "assemble") {
		t.Fatalf("Build with a panicking construction returned %v, want an *obs.PanicError raised in assemble", err)
	}
	_, err = submit(e, context.Background(), func(context.Context) (*congest.Stats, error) {
		procs := make([]congest.Proc, g.NumNodes())
		for v := range procs {
			procs[v] = congest.ProcFunc(panickingStep)
		}
		net, err := congest.NewNetwork(g, procs)
		if err != nil {
			return nil, err
		}
		return net.Run(10)
	})
	if !errors.As(err, &pe) || pe.Value != "step bug" || !strings.Contains(string(pe.Stack), "panickingStep") {
		t.Fatalf("job with a panicking Step returned %v, want an *obs.PanicError raised in panickingStep", err)
	}
	if _, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); err != nil {
		t.Fatalf("Build after the panics: %v", err)
	}
	if _, err := e.MST(context.Background(), MSTRequest{Graph: fp}); err != nil {
		t.Fatalf("MST after the panics: %v", err)
	}
	if st := e.Stats(); st.JobPanics != 3 || st.JobsFailed != 3 || st.Builds != 1 {
		t.Errorf("stats = %+v, want 3 job panics, 3 failed jobs, 1 build", st)
	}
	jobsSettle(t, e)

	// A store read that panics fails its own fill: the request gets the
	// panic, nothing is cached, and the next Build of the key reads again.
	ps := panickyGetStore{newStubStore()}
	se := newTestEngine(t, Config{Workers: 1, Store: ps})
	sfp, err := se.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, _, err := se.Build(context.Background(), BuildRequest{Graph: sfp, Parts: p})
		if !errors.As(err, &pe) || pe.Value != "decode bug" || !strings.Contains(string(pe.Stack), "panickyGetStore.GetShortcut") {
			t.Fatalf("Build %d over a panicking store read returned %v, want an *obs.PanicError raised in GetShortcut", i, err)
		}
	}
	ps.mu.Lock()
	gets := ps.gets
	ps.mu.Unlock()
	if st := se.Stats(); gets != 2 || st.JobPanics != 2 || st.JobsFailed != 2 || st.CachedEntries != 0 || st.Builds != 0 {
		t.Errorf("%d store reads, stats = %+v; want 2 reads, 2 job panics, 2 failed jobs, nothing cached or built", gets, st)
	}
	jobsSettle(t, se)
}

// eventually polls cond until it holds, failing the test after 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// jobsSettle waits until the engine's queue is empty and no job runs.
func jobsSettle(t *testing.T, e *Engine) {
	t.Helper()
	eventually(t, "queue_depth and running_jobs return to 0", func() bool {
		s := e.Stats()
		return s.QueueDepth == 0 && s.RunningJobs == 0
	})
}

// occupy submits a job that holds e's only worker until release is
// called, and waits until the worker runs it.
func occupy(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	block := make(chan struct{})
	go submit(e, context.Background(), func(context.Context) (int, error) {
		<-block
		return 0, nil
	})
	eventually(t, "the worker runs the blocking job", func() bool { return e.Stats().RunningJobs == 1 })
	return func() { close(block) }
}

// TestEngineMissCanceledOnFullQueue: with the one worker busy and the
// one-slot queue full, a miss whose caller gives up returns its context's
// error at once, yet its fill still runs once the worker frees up, and the
// next Build of the key is a cache hit.
func TestEngineMissCanceledOnFullQueue(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	g, p := testGraph(t)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	release := occupy(t, e)
	go submit(e, context.Background(), func(context.Context) (int, error) { return 0, nil })
	eventually(t, "a job fills the queue", func() bool { return e.Stats().QueueDepth == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p})
		errc <- err
	}()
	eventually(t, "the fill waits for room in the queue", func() bool { return e.Stats().QueueDepth == 2 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled miss returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a caller whose context ended stayed blocked on the full queue")
	}
	release()
	key := ShortcutKey(fp, p, shortcut.Options{})
	eventually(t, "the abandoned fill lands in the cache", func() bool {
		_, ok := e.Shortcut(key)
		return ok
	})
	if c, hit, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p}); err != nil || !hit || c.Key != key {
		t.Fatalf("Build after the abandoned fill: hit=%v err=%v, want a cache hit", hit, err)
	}
	if st := e.Stats(); st.Builds != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 build for 1 miss", st)
	}
	jobsSettle(t, e)
}

// TestEngineCloseFailsQueuedFills closes the engine while three fills wait
// behind a busy worker, two in the queue and one for room in it: every
// waiter returns ErrClosed within a deadline, Close returns once the
// worker is released, and nothing is cached.
func TestEngineCloseFailsQueuedFills(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 2})
	g, _ := testGraph(t)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	release := occupy(t, e)
	const fills = 3
	keys := make(map[Fingerprint]bool, fills)
	errc := make(chan error, fills)
	for seed := int64(1); seed <= fills; seed++ {
		p, err := partition.BFSBlobs(g, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		keys[ShortcutKey(fp, p, shortcut.Options{})] = true
		go func() {
			_, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
			errc <- err
		}()
	}
	if len(keys) != fills {
		t.Fatalf("%d distinct keys, want %d", len(keys), fills)
	}
	eventually(t, "every fill is queued", func() bool { return e.Stats().QueueDepth == fills })
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for i := 0; i < fills; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("waiter of a queued fill returned %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a waiter of a queued fill hung through Close")
		}
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the worker was released")
	}
	for key := range keys {
		if _, ok := e.Shortcut(key); ok {
			t.Errorf("a fill queued at Close was cached under %s", key)
		}
	}
	if st := e.Stats(); st.CachedEntries != 0 {
		t.Errorf("stats = %+v, want nothing cached", st)
	}
	jobsSettle(t, e)
}

// TestEngineTracesPublished pins what /v1/traces shows. A cold build
// publishes its trace before Build returns, whether or not its fill
// measured: the store check, at offset 0, the Builder's stages, and a
// measurement only when the fill made one. A later MeasureCached publishes
// nothing and observes the measurement once. A store hit publishes a
// trace only when its fill measured it: the store check and the
// measurement.
func TestEngineTracesPublished(t *testing.T) {
	ctx := context.Background()
	st := newStubStore()
	g, p := testGraph(t)
	checkTrace := func(tr *obs.Tracer, key Fingerprint, want ...string) {
		t.Helper()
		traces := tr.Recent(0)
		if len(traces) != 1 {
			t.Fatalf("%d traces published, want 1", len(traces))
		}
		x := traces[0]
		if x.Op != "build" || x.Fingerprint != key.String() || x.ID == "" {
			t.Errorf("trace op=%q fp=%q id=%q, want build/%s with an ID", x.Op, x.Fingerprint, x.ID, key)
		}
		names := make([]string, len(x.Spans))
		for i, sp := range x.Spans {
			names[i] = sp.Name
			if sp.StartNs < 0 || sp.DurNs < 0 || sp.StartNs+sp.DurNs > x.DurNs {
				t.Errorf("span %+v lies outside the trace's %d ns", sp, x.DurNs)
			}
		}
		if !slices.Equal(names, want) || x.Spans[0].StartNs != 0 {
			t.Errorf("spans %v, want %v with store_check at offset 0", x.Spans, want)
		}
	}

	reg, tr := obs.NewRegistry(), obs.NewTracer(8)
	cold := New(Config{Workers: 1, Store: st, Obs: reg, Tracer: tr})
	fp, err := cold.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cold.Build(ctx, BuildRequest{Graph: fp, Parts: p})
	if err != nil || c.Source != SourceBuilt {
		t.Fatalf("cold build: %v", err)
	}
	checkTrace(tr, c.Key, "store_check", "choose_root", "bfs_tree", "level(d=1)", "sweep", "assemble")
	if _, err := cold.MeasureCached(ctx, c); err != nil {
		t.Fatal(err)
	}
	if n := tr.Published(); n != 1 {
		t.Errorf("%d traces published after MeasureCached, want the fill's 1", n)
	}
	if n := engineHistogramCount(t, reg, "locshort_engine_measure_seconds"); n != 1 {
		t.Errorf("MeasureCached observed %d measurements, want 1", n)
	}
	cold.Close() // drains the persist the store hits below read

	for _, measure := range []bool{false, true} {
		tr := obs.NewTracer(8)
		warm := newTestEngine(t, Config{Workers: 1, Store: st, Tracer: tr})
		if _, err := warm.AddGraph(g); err != nil {
			t.Fatal(err)
		}
		c, _, err = warm.Build(ctx, BuildRequest{Graph: fp, Parts: p, Measure: measure})
		if err != nil || c.Source != SourceStore {
			t.Fatalf("store hit: %v", err)
		}
		if measure {
			checkTrace(tr, c.Key, "store_check", "measure")
			continue
		}
		if _, err := warm.MeasureCached(ctx, c); err != nil {
			t.Fatal(err)
		}
		if n := tr.Published(); n != 0 {
			t.Errorf("a store hit its fill did not measure published %d traces", n)
		}
	}
}

// panickingStep is a CONGEST node program with a bug: node 40 panics in
// round 1.
func panickingStep(ctx *congest.Context) {
	if ctx.Node == 40 && ctx.Round == 1 {
		panic("step bug")
	}
	if ctx.Round == 3 {
		ctx.Halt()
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

// AddGraph registers the canonical form of what it is given: a graph out
// of canonical order, with a −0 weight, is registered as a canonical copy
// with +0 under the fingerprint of its content, and a NaN weight is
// refused.
func TestEngineAddGraphCanonical(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	g := graph.New(4)
	g.AddWeightedEdge(2, 3, 1)
	g.AddWeightedEdge(1, 0, math.Copysign(0, -1))
	g.AddWeightedEdge(1, 2, 2)
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if fp != FingerprintGraph(graph.Canonical(g)) {
		t.Error("the fingerprint is not the canonical form's")
	}
	rep, _ := e.Graph(fp)
	want := []graph.Edge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}}
	if rep == g || !slices.Equal(rep.EdgeSlice(), want) || math.Signbit(rep.Edge(0).W) {
		t.Errorf("representative edges %v, want a canonical copy %v", rep.EdgeSlice(), want)
	}
	nan := graph.New(2)
	nan.AddWeightedEdge(0, 1, math.NaN())
	if _, err := e.AddGraph(nan); err == nil {
		t.Error("AddGraph accepted a NaN weight")
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

// PutGraphPayload refuses: decoding a payload is internal/store's, and
// the engine tests register graphs through AddGraph.
func (s *stubStore) PutGraphPayload(Fingerprint, []byte) error {
	return errors.New("stub: no graph payloads")
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

// panickyPutStore is a stub store with a bug in its encode: PutShortcut
// panics.
type panickyPutStore struct{ *stubStore }

func (panickyPutStore) PutShortcut(Fingerprint, Fingerprint, *partition.Partition,
	shortcut.Options, *shortcut.Result, time.Duration) error {
	panic("encode bug")
}

// panickyGetStore is a stub store with a bug in its decode: GetShortcut
// counts the read, then panics.
type panickyGetStore struct{ *stubStore }

func (s panickyGetStore) GetShortcut(Fingerprint, *graph.Graph, *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	panic("decode bug")
}

// TestPersistPanicCounted: a panic in the detached persist fails that
// persist, not the process. It counts as a store error and a persist
// panic, in Stats and in /metrics; its stack is logged once through
// Config.Logger, and with no logger it is counted all the same. The engine
// keeps serving and Close still drains.
func TestPersistPanicCounted(t *testing.T) {
	g, p := testGraph(t)
	p2, err := partition.BFSBlobs(g, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, logged := range []bool{true, false} {
		var logbuf strings.Builder
		reg := obs.NewRegistry()
		cfg := Config{Workers: 1, Store: panickyPutStore{newStubStore()}, Obs: reg}
		if logged {
			cfg.Logger = obs.NewLogger(&logbuf)
		}
		e := New(cfg)
		fp, err := e.AddGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []*partition.Partition{p, p2} {
			if c, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: parts}); err != nil || c.Source != SourceBuilt {
				t.Fatalf("Build beside a panicking persist: %v", err)
			}
		}
		e.Close() // drains both persists, panics included
		st := e.Stats()
		if st.PersistPanics != 2 || st.StoreErrors != 2 || st.StoreWrites != 0 || st.Builds != 2 {
			t.Errorf("logged=%v: stats = %+v, want 2 persist panics, 2 store errors, 0 writes, 2 builds", logged, st)
		}
		var metrics strings.Builder
		if err := reg.WritePrometheus(&metrics); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(metrics.String(), "\nlocshort_engine_persist_panics_total 2\n") {
			t.Errorf("logged=%v: /metrics lacks locshort_engine_persist_panics_total 2", logged)
		}
		lines := strings.Count(logbuf.String(), "msg=persist_panic")
		switch {
		case !logged && logbuf.Len() != 0:
			t.Errorf("no logger, yet something was logged: %s", logbuf.String())
		case logged && lines != 2:
			t.Errorf("%d persist_panic lines, want one per panic:\n%s", lines, logbuf.String())
		case logged && !strings.Contains(logbuf.String(), "encode bug") ||
			logged && !strings.Contains(logbuf.String(), "panickyPutStore.PutShortcut"):
			t.Errorf("persist_panic lines lack the value or the stack:\n%s", logbuf.String())
		}
	}
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
