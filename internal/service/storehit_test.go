package service_test

import (
	"context"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// BenchmarkEngineStoreHit times one cache miss served from the durable
// store, the request the store-mixed workload is mostly made of: two
// grid:32x32 blobs:16 records in a segment store, a one-entry cache, and
// key-only requests for the two keys in turn, so every op evicts the other
// key and decodes its record. The tracer is on, as locshortd wires it; no
// one measures the entries, as with binary answers. CI gates its
// allocs/op.
func BenchmarkEngineStoreHit(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	g, _, err := cli.ParseGraph("grid:32x32", 0)
	if err != nil {
		b.Fatal(err)
	}
	fp := service.FingerprintGraph(g)
	if err := st.PutGraph(fp, g); err != nil {
		b.Fatal(err)
	}
	var reqs [2]service.BuildRequest
	for i := range reqs {
		seed := int64(i + 1)
		p, err := cli.ParsePartition(g, "blobs:16", seed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := shortcut.Build(g, p, shortcut.Options{})
		if err != nil {
			b.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		if err := st.PutShortcut(key, fp, p, shortcut.Options{}, res, 0); err != nil {
			b.Fatal(err)
		}
		reqs[i] = service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:16", Seed: seed}
	}
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
