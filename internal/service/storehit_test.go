package service_test

import (
	"context"
	"reflect"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/dist"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// twoRecordStore opens a segment store holding grid:32x32 and two of its
// blobs:16 shortcut records, at seeds 1 and 2, and returns it with the
// key-only requests for the two.
func twoRecordStore(tb testing.TB) (*store.Store, [2]service.BuildRequest) {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), store.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	g, _, err := cli.ParseGraph("grid:32x32", 0)
	if err != nil {
		tb.Fatal(err)
	}
	fp := service.FingerprintGraph(g)
	if err := st.PutGraph(fp, g); err != nil {
		tb.Fatal(err)
	}
	var reqs [2]service.BuildRequest
	for i := range reqs {
		seed := int64(i + 1)
		p, err := cli.ParsePartition(g, "blobs:16", seed)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := shortcut.Build(g, p, shortcut.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		if err := st.PutShortcut(key, fp, p, shortcut.Options{}, res, 0); err != nil {
			tb.Fatal(err)
		}
		reqs[i] = service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:16", Seed: seed}
	}
	return st, reqs
}

// BenchmarkEngineStoreHit times one cache miss served from the durable
// store, the request the store-mixed workload is mostly made of: two
// grid:32x32 blobs:16 records in a segment store, a one-entry cache, and
// key-only requests for the two keys in turn, so every op evicts the other
// key and decodes its record. The tracer is on, as locshortd wires it; no
// one measures the entries, as with binary answers. CI gates its
// allocs/op.
func BenchmarkEngineStoreHit(b *testing.B) {
	st, reqs := twoRecordStore(b)
	e := service.New(service.Config{
		CacheCapacity: 1, CacheShards: 1, Store: st,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(128),
	})
	defer e.Close()
	if n, err := e.WarmStart(); err != nil || n != 1 {
		b.Fatalf("WarmStart = %d, %v; want the one graph", n, err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, hit, err := e.Build(ctx, reqs[i%2])
		if err != nil || hit || c.Source != service.SourceStore {
			b.Fatalf("op %d: hit=%v err=%v, want a store hit", i, hit, err)
		}
	}
	b.StopTimer()
	if s := e.Stats(); s.Builds != 0 || s.StoreHits < uint64(b.N) {
		b.Fatalf("stats %+v: want %d store hits and no builds", s, b.N)
	}
}

// TestStoreReadsShareGraphTree: an entry decoded from the store carries
// the graph's memoized BFS tree, not a copy of it: two store reads on one
// graph return trees whose Parent and ParentEdge are the memo's arrays.
func TestStoreReadsShareGraphTree(t *testing.T) {
	st, reqs := twoRecordStore(t)
	e := service.New(service.Config{CacheCapacity: 1, CacheShards: 1, Store: st})
	defer e.Close()
	if _, err := e.WarmStart(); err != nil {
		t.Fatal(err)
	}
	g, ok := e.Graph(reqs[0].Graph)
	if !ok {
		t.Fatal("graph not warm-started")
	}
	memo := g.BFSTree()
	for _, req := range reqs {
		c, _, err := e.Build(context.Background(), req)
		if err != nil || c.Source != service.SourceStore {
			t.Fatalf("Build: err=%v, want a store hit", err)
		}
		tr := c.Result.Shortcut.Tree
		if &tr.Parent[0] != &memo.Parent[0] || &tr.ParentEdge[0] != &memo.ParentEdge[0] {
			t.Errorf("key %s: the decoded tree does not alias the graph's BFS tree", req.Key)
		}
	}
}

// TestAggregateSameForEveryFill: an aggregation addresses its shortcut by
// key alone, so it answers the same whichever way the entry was filled. A
// key built from the request's blobs partition, whose parts are in seed
// order, and the same key read key-only from the store, whose parts are
// in canonical order, give identical part results and rounds.
func TestAggregateSameForEveryFill(t *testing.T) {
	st, reqs := twoRecordStore(t)
	ctx := context.Background()
	aggregate := func(e *service.Engine, req service.BuildRequest) *dist.PAResult {
		t.Helper()
		if _, _, err := e.Build(ctx, req); err != nil {
			t.Fatal(err)
		}
		g, _ := e.Graph(req.Graph)
		values := make([]dist.Payload, g.NumNodes())
		for v := range values {
			values[v] = dist.Payload{int64(v), int64(v), int64(v)}
		}
		res, err := e.Aggregate(ctx, service.AggregateRequest{Shortcut: req.Key, Op: dist.OpSum, Values: values, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stored := service.New(service.Config{Workers: 1, Store: st})
	defer stored.Close()
	if _, err := stored.WarmStart(); err != nil {
		t.Fatal(err)
	}
	built := service.New(service.Config{Workers: 1})
	defer built.Close()
	g, _ := stored.Graph(reqs[0].Graph)
	if _, err := built.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		p, err := cli.ParsePartition(g, req.Spec, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		fromRecord := aggregate(stored, req)
		fromParts := aggregate(built, service.BuildRequest{Graph: req.Graph, Key: req.Key, Parts: p})
		if !reflect.DeepEqual(fromRecord.PartResult, fromParts.PartResult) || fromRecord.Rounds != fromParts.Rounds {
			t.Errorf("key %s: a stored entry aggregates to %v in %+v, a built one to %v in %+v", req.Key,
				fromRecord.PartResult, fromRecord.Rounds, fromParts.PartResult, fromParts.Rounds)
		}
	}
}
