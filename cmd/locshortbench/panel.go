package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// family is one graph instance of the layer panel. Labels name the
// per-family metrics; the specs are those the workloads send.
type family struct {
	label    string
	spec     string
	partSpec string
}

// defaultFamilies are the cold-build graphs plus the store-mixed grid;
// defaultHit is the warm workloads' hottest graph.
var (
	defaultFamilies = []family{
		{"grid64", "grid:64x64", "blobs:32"},
		{"torus32", "torus:32x32", "blobs:32"},
		{"ktree600", "ktree:600,4", "blobs:32"},
		{"grid32", "grid:32x32", "blobs:16"},
	}
	defaultHit = family{"grid16", "grid:16x16", "blobs:16"}
)

// Stage names of shortcut.Result.Stages reported for grid64; every
// "level(d=N)" stage is summed into "level".
var stageNames = []string{"choose_root", "bfs_tree", "level", "sweep", "assemble"}

// op is one microbenchmarked call. Ops of a group run their rounds
// interleaved, so every variant sees the same machine conditions; the
// time per op is the median over rounds, allocations the minimum (the
// best-of method internal/bench uses for its overhead gate).
type op struct {
	name   string
	fn     func() error
	ns     []float64
	allocs []float64
}

// rounds is how the panel times an op: this many rounds, each calling the
// op until it has run for at least min.
type rounds struct {
	n   int
	min time.Duration
}

var defaultRounds = rounds{n: 5, min: 20 * time.Millisecond}

func (rs rounds) measure(ops ...*op) error {
	var before, after runtime.MemStats
	for r := 0; r < rs.n; r++ {
		for _, o := range ops {
			runtime.ReadMemStats(&before)
			start := time.Now()
			n := 0
			for n == 0 || time.Since(start) < rs.min {
				if err := o.fn(); err != nil {
					return fmt.Errorf("%s: %w", o.name, err)
				}
				n++
			}
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			o.ns = append(o.ns, float64(el.Nanoseconds())/float64(n))
			o.allocs = append(o.allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		}
	}
	return nil
}

func (o *op) nsPerOp() float64     { return median(o.ns) }
func (o *op) allocsPerOp() float64 { return slices.Min(o.allocs) }

// instance is a parsed panel family at a fixed partition seed.
type instance struct {
	family
	g     *graph.Graph
	fp    service.Fingerprint
	parts *partition.Partition
}

func newInstance(f family, seed int64) (*instance, error) {
	g, _, err := cli.ParseGraph(f.spec, 0)
	if err != nil {
		return nil, err
	}
	parts, err := cli.ParsePartition(g, f.partSpec, seed)
	if err != nil {
		return nil, err
	}
	return &instance{family: f, g: g, fp: service.FingerprintGraph(g), parts: parts}, nil
}

// panel measures each layer's public functions in isolation. It runs in
// every traced run, the same way regardless of workload, so its numbers
// are comparable across workloads; the metric list in doc.go maps each to
// the end-to-end metric and workload it should move.
func (b *bench) panel(ctx context.Context, dir string) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) {
		out = append(out, metric{Name: name, Value: v, Unit: unit})
	}
	hit, err := newInstance(b.hit, 1)
	if err != nil {
		return nil, err
	}
	insts := make([]*instance, len(b.families))
	for i, f := range b.families {
		if insts[i], err = newInstance(f, 1); err != nil {
			return nil, err
		}
	}

	// internal/wire, internal/cli, internal/service: the warm request path.
	body := wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: hit.fp, Partition: hit.partSpec, Seed: 1})
	decode := &op{name: "decode", fn: func() error { _, err := wire.DecodeShortcutRequest(body); return err }}
	key := &op{name: "key", fn: func() error { service.ShortcutKey(hit.fp, hit.parts, shortcut.Options{}); return nil }}
	eng := service.New(service.Config{CacheCapacity: 64})
	defer eng.Close()
	if _, err := eng.AddGraph(hit.g); err != nil {
		return nil, err
	}
	hitReq := service.BuildRequest{Graph: hit.fp, Parts: hit.parts}
	engHit := &op{name: "engine hit", fn: func() error { _, _, err := eng.Build(ctx, hitReq); return err }}
	if err := engHit.fn(); err != nil {
		return nil, err
	}
	var parse []*op
	for _, in := range insts {
		parse = append(parse, &op{name: "parse " + in.label, fn: func() error {
			_, err := cli.ParsePartition(in.g, in.partSpec, 1)
			return err
		}})
	}
	if err := b.rounds.measure(append([]*op{decode, key, engHit}, parse...)...); err != nil {
		return nil, err
	}
	add("wire.decode_request_ns", decode.nsPerOp(), "ns")
	add("wire.decode_request_allocs", decode.allocsPerOp(), "allocs")
	for i, in := range insts {
		add("cli.parse_partition_ns."+in.label, parse[i].nsPerOp(), "ns")
	}
	add("service.shortcut_key_ns", key.nsPerOp(), "ns")
	add("service.engine_hit_ns", engHit.nsPerOp(), "ns")
	add("service.engine_hit_allocs", engHit.allocsPerOp(), "allocs")

	// internal/shortcut: construction and measurement.
	for _, in := range insts {
		par, seq := shortcut.NewBuilder(), shortcut.NewBuilder()
		var res *shortcut.Result
		build := &op{name: "build " + in.label, fn: func() error {
			_, err := par.Build(in.g, in.parts, shortcut.Options{})
			return err
		}}
		buildSeq := &op{name: "build seq " + in.label, fn: func() error {
			var err error
			res, err = seq.Build(in.g, in.parts, shortcut.Options{Parallelism: 1})
			return err
		}}
		if err := b.rounds.measure(build, buildSeq); err != nil {
			return nil, err
		}
		meas := &op{name: "measure " + in.label, fn: func() error { shortcut.Measure(res.Shortcut); return nil }}
		if err := b.rounds.measure(meas); err != nil {
			return nil, err
		}
		add("shortcut.build_ns."+in.label, build.nsPerOp(), "ns")
		add("shortcut.build_seq_ns."+in.label, buildSeq.nsPerOp(), "ns")
		add("shortcut.build_allocs."+in.label, buildSeq.allocsPerOp(), "allocs")
		add("shortcut.measure_ns."+in.label, meas.nsPerOp(), "ns")
		if in == insts[0] {
			add("shortcut.measure_allocs."+in.label, meas.allocsPerOp(), "allocs")
		}
	}
	stages, err := stageBreakdown(insts[0], b.rounds.n)
	if err != nil {
		return nil, err
	}
	for _, s := range stageNames {
		add("shortcut.stage_ns."+s, stages[s], "ns")
	}

	// internal/store.
	st, err := storePanel(dir, insts, b.rounds)
	if err != nil {
		return nil, err
	}
	out = append(out, st...)

	// internal/cluster.
	ring, err := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 64)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]service.Fingerprint, 1024)
	for i := range keys {
		keys[i] = service.Fingerprint(rng.Uint64())
	}
	ki := 0
	owner := &op{name: "owner", fn: func() error { ring.Owner(keys[ki%len(keys)]); ki++; return nil }}
	if err := b.rounds.measure(owner); err != nil {
		return nil, err
	}
	add("cluster.owner_ns", owner.nsPerOp(), "ns")
	hop, err := b.forwardHop(ctx, filepath.Join(dir, "cluster"))
	if err != nil {
		return nil, fmt.Errorf("forward hop: %w", err)
	}
	return append(out, hop...), nil
}

// stageBreakdown runs fresh sequential builds with stage collection and
// returns each stage's median duration in ns.
func stageBreakdown(in *instance, n int) (map[string]float64, error) {
	samples := make(map[string][]float64)
	for r := 0; r < n; r++ {
		res, err := shortcut.Build(in.g, in.parts, shortcut.Options{Parallelism: 1, CollectStages: true})
		if err != nil {
			return nil, err
		}
		sum := make(map[string]float64)
		for _, s := range res.Stages {
			name := s.Name
			if strings.HasPrefix(name, "level(") {
				name = "level"
			}
			sum[name] += float64(s.Dur.Nanoseconds())
		}
		for _, s := range stageNames {
			samples[s] = append(samples[s], sum[s])
		}
	}
	out := make(map[string]float64)
	for s, v := range samples {
		out[s] = median(v)
	}
	return out, nil
}

// storePanel measures the store's write and read paths: durable appends
// (fsync on) per family, and reads of sealed segments mapped and unmapped.
func storePanel(dir string, insts []*instance, rs rounds) ([]metric, error) {
	var out []metric
	grid32 := insts[len(insts)-1]
	put := func(in *instance, n int) (float64, error) {
		st, err := store.Open(filepath.Join(dir, "put-"+in.label), store.Options{})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		if err := st.PutGraph(in.fp, in.g); err != nil {
			return 0, err
		}
		var ts []float64
		bld := shortcut.NewBuilder()
		for s := int64(0); s < int64(n); s++ {
			parts, err := cli.ParsePartition(in.g, in.partSpec, 100+s)
			if err != nil {
				return 0, err
			}
			res, err := bld.Build(in.g, parts, shortcut.Options{Parallelism: 1})
			if err != nil {
				return 0, err
			}
			key := service.ShortcutKey(in.fp, parts, shortcut.Options{})
			start := time.Now()
			if err := st.PutShortcut(key, in.fp, parts, shortcut.Options{}, res, 0); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(start).Nanoseconds()))
		}
		return median(ts), nil
	}
	for _, in := range []*instance{insts[0], grid32} {
		v, err := put(in, 8)
		if err != nil {
			return nil, err
		}
		out = append(out, metric{Name: "store.put_shortcut_ns." + in.label, Value: v, Unit: "ns"})
	}

	// A grid32 dataset in small segments, so reads hit sealed segments.
	rdir := filepath.Join(dir, "read")
	st, err := store.Open(rdir, store.Options{SegmentBytes: 16 << 10, NoSync: true})
	if err != nil {
		return nil, err
	}
	if err := st.PutGraph(grid32.fp, grid32.g); err != nil {
		st.Close()
		return nil, err
	}
	type rec struct {
		key   service.Fingerprint
		parts *partition.Partition
	}
	var recs []rec
	bld := shortcut.NewBuilder()
	// At least 48 records and three segments, whatever the record size.
	for s := int64(0); s < 48 || st.OpenStats().Segments < 3; s++ {
		parts, err := cli.ParsePartition(grid32.g, grid32.partSpec, s)
		if err != nil {
			st.Close()
			return nil, err
		}
		res, err := bld.Build(grid32.g, parts, shortcut.Options{Parallelism: 1})
		if err != nil {
			st.Close()
			return nil, err
		}
		key := service.ShortcutKey(grid32.fp, parts, shortcut.Options{})
		if err := st.PutShortcut(key, grid32.fp, parts, shortcut.Options{}, res, 0); err != nil {
			st.Close()
			return nil, err
		}
		recs = append(recs, rec{key, parts})
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	mapped, err := store.Open(rdir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer mapped.Close()
	// Keep the records of sealed segments only: the newest segment is the
	// active tail, which is never mapped.
	seg := make(map[service.Fingerprint]int)
	active := 0
	for _, ri := range mapped.Records() {
		seg[ri.Key] = ri.Segment
		active = max(active, ri.Segment)
	}
	recs = slices.DeleteFunc(recs, func(r rec) bool { return seg[r.key] == active })
	if len(recs) < 2 || mapped.OpenStats().MappedSegments == 0 {
		return nil, fmt.Errorf("%s: too few records in mapped segments", rdir)
	}
	unmapped, err := store.Open(rdir, store.Options{NoMmap: true})
	if err != nil {
		return nil, err
	}
	defer unmapped.Close()
	i := 0
	next := func() rec { r := recs[i%len(recs)]; i++; return r }
	get := &op{name: "get", fn: func() error {
		r := next()
		_, _, ok, err := mapped.GetShortcut(r.key, grid32.g, r.parts)
		if err == nil && !ok {
			err = fmt.Errorf("record %s missing", r.key)
		}
		return err
	}}
	payload := func(s *store.Store) func() error {
		return func() error {
			_, ok, err := s.ShortcutPayload(next().key)
			if err == nil && !ok {
				err = fmt.Errorf("payload missing")
			}
			return err
		}
	}
	pm := &op{name: "payload mmap", fn: payload(mapped)}
	pp := &op{name: "payload pread", fn: payload(unmapped)}
	if err := rs.measure(get, pm, pp); err != nil {
		return nil, err
	}
	out = append(out,
		metric{Name: "store.get_shortcut_ns." + grid32.label, Value: get.nsPerOp(), Unit: "ns"},
		metric{Name: "store.payload_ns.mmap", Value: pm.nsPerOp(), Unit: "ns"},
		metric{Name: "store.payload_ns.pread", Value: pp.nsPerOp(), Unit: "ns"},
		metric{Name: "store.payload_allocs.mmap", Value: pm.allocsPerOp(), Unit: "allocs"},
	)

	// The engine's store-hit path: a one-entry cache over the mapped
	// records, so every Build is a miss served by the store.
	eng := service.New(service.Config{CacheCapacity: 1, CacheShards: 1, Store: mapped})
	defer eng.Close()
	if _, err := eng.WarmStart(); err != nil {
		return nil, err
	}
	storeHit := &op{name: "engine store hit", fn: func() error {
		r := next()
		c, _, err := eng.Build(context.Background(), service.BuildRequest{Graph: grid32.fp, Parts: r.parts})
		if err == nil && c.Source != service.SourceStore {
			err = fmt.Errorf("source %s, want store", c.Source)
		}
		return err
	}}
	if err := rs.measure(storeHit); err != nil {
		return nil, err
	}
	return append(out, metric{Name: "service.engine_store_hit_ns", Value: storeHit.nsPerOp(), Unit: "ns"}), nil
}
