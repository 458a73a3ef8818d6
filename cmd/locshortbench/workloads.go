package main

import (
	"fmt"
	"math/rand"
	"sync"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// callers is the closed loop's concurrency: two callers, each with one
// keep-alive connection per daemon, each sending its next request only
// after the previous answer is fully read — no more connections in flight
// than a two-vCPU machine has cores. An open-loop generator measures its
// own sleep granularity there rather than the daemon (see doc.go).
const callers = 2

// Request encodings of a workload.
const (
	encJSON      = "json"
	encBinary    = "binary"
	encAlternate = "alternate"
)

// Graph choice per request.
const (
	pickZipf       = "zipf"        // Zipf(1.3) over catalog ranks, rank 1 hottest
	pickRoundRobin = "round-robin" // catalog order, interleaved across callers
	pickUniform    = "uniform"
)

// workload is one named traffic mix against a locshortd deployment. The
// daemons see only the generated requests; everything here is decided by
// the run seed.
type workload struct {
	name     string
	nodes    int      // daemons; 3 forms a static cluster ring
	catalog  []string // graph family specs, ingested during set-up
	partSpec string   // partition spec sent with every request
	// keysPerGraph is the number of resident partition seeds per graph:
	// pre-warmed keys (warm-hit, cluster-3) or records written before the
	// daemon starts (store-mixed). Zero: every request uses a fresh seed.
	keysPerGraph int
	prewarm      bool    // build every key through every node during set-up
	dataset      bool    // write the keys into the store in-process before launch
	pick         string  // pickZipf, pickRoundRobin or pickUniform
	encoding     string  // encJSON, encBinary or encAlternate
	writeFrac    float64 // share of requests with a never-used seed (1: all)
	// readsMustHit makes a read that reports source "built" a correctness
	// failure: every read key exists in the store before traffic starts.
	readsMustHit bool
	// replay is the length of the traced in-process replay.
	replay int
	// rssAfter is the number of completed requests, warm-up included,
	// after which peak RSS is read: the daemon's partition memo grows with
	// every never-used seed, so a reading at the end of the window would
	// follow how many requests the machine's speed allowed. Each value is
	// below what the slowest measured windows completed.
	rssAfter int
}

// defaultWorkloads are the benchmark's four workloads; BENCHMARK.json lists
// the same names and doc.go says why each exists.
func defaultWorkloads() []*workload {
	warmCatalog := []string{"grid:16x16", "torus:16x16", "wheel:200", "ktree:300,4"}
	return []*workload{
		{
			name: "warm-hit", nodes: 1, catalog: warmCatalog, partSpec: "blobs:16",
			keysPerGraph: 4, prewarm: true, pick: pickZipf, encoding: encAlternate,
			replay: 2000, rssAfter: 100_000,
		},
		{
			name: "cold-build", nodes: 1,
			catalog:  []string{"grid:64x64", "torus:32x32", "ktree:600,4"},
			partSpec: "blobs:32", pick: pickRoundRobin, encoding: encJSON, writeFrac: 1,
			// Each replayed request is a full build plus its first Measure
			// (tens of milliseconds on grid:64x64), so the replay is short.
			replay: 45, rssAfter: 150,
		},
		{
			name: "store-mixed", nodes: 1, catalog: []string{"grid:32x32", "grid:24x24"},
			partSpec: "blobs:16", keysPerGraph: 512, dataset: true, pick: pickUniform,
			encoding: encBinary, writeFrac: 0.1, readsMustHit: true, replay: 2000,
			rssAfter: 15_000,
		},
		{
			name: "cluster-3", nodes: 3, catalog: warmCatalog, partSpec: "blobs:16",
			keysPerGraph: 8, prewarm: true, pick: pickZipf, encoding: encAlternate,
			replay: 2000, rssAfter: 40_000,
		},
	}
}

// request is one generated /v1/shortcuts call.
type request struct {
	graph  int   // catalog index
	seed   int64 // partition seed
	binary bool
	write  bool // a never-used seed: the daemon has to build
	node   int  // entry node
}

// plan holds the client-side view of a workload at one run seed: the
// catalog graphs (built exactly as the daemon builds them from the same
// spec), their fingerprints, and the resident key seeds.
type plan struct {
	w        *workload
	seed     int64
	graphs   []*graph.Graph
	fps      []service.Fingerprint
	keySeeds [][]int64 // per graph
	base     int64     // first seed of this run's seed space

	mu    sync.Mutex
	parts map[partKey]*partition.Partition
}

type partKey struct {
	graph int
	seed  int64
}

// Daemon cache geometry at default flags: 64 entries split over 16
// shards, a key's shard being its low four bits. A pre-warmed key set is
// chosen so that no shard holds more than its share; otherwise some seeds
// would evict during a "resident hit" workload and measure rebuilds.
const (
	cacheShards   = 16
	cacheShardCap = 64 / cacheShards
)

// freshOffset separates the never-used seeds of a run from its resident
// key seeds.
const freshOffset = 500_000

func newPlan(w *workload, seed int64) (*plan, error) {
	p := &plan{
		w:     w,
		seed:  seed,
		base:  (seed % 1_000_000_000) * 1_000_000,
		parts: make(map[partKey]*partition.Partition),
	}
	for _, spec := range w.catalog {
		g, _, err := cli.ParseGraph(spec, 0)
		if err != nil {
			return nil, fmt.Errorf("catalog %q: %w", spec, err)
		}
		p.graphs = append(p.graphs, g)
		p.fps = append(p.fps, service.FingerprintGraph(g))
	}
	p.keySeeds = make([][]int64, len(w.catalog))
	if w.keysPerGraph == 0 {
		return p, nil
	}
	if !w.prewarm {
		for gi := range w.catalog {
			for i := 0; i < w.keysPerGraph; i++ {
				p.keySeeds[gi] = append(p.keySeeds[gi], p.base+int64(i))
			}
		}
		return p, nil
	}
	var load [cacheShards]int
	next := p.base
	for gi := range w.catalog {
		for len(p.keySeeds[gi]) < w.keysPerGraph {
			if next-p.base >= freshOffset {
				return nil, fmt.Errorf("%s: no resident key set fits the cache shards", w.name)
			}
			s := next
			next++
			key, err := p.key(gi, s)
			if err != nil {
				return nil, err
			}
			sh := uint64(key) % cacheShards
			if load[sh] == cacheShardCap {
				continue
			}
			load[sh]++
			p.keySeeds[gi] = append(p.keySeeds[gi], s)
		}
	}
	return p, nil
}

// partition returns the partition a request names, parsed client-side
// against the client's copy of the graph.
func (p *plan) partition(gi int, seed int64) (*partition.Partition, error) {
	k := partKey{gi, seed}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pt, ok := p.parts[k]; ok {
		return pt, nil
	}
	pt, err := cli.ParsePartition(p.graphs[gi], p.w.partSpec, seed)
	if err != nil {
		return nil, err
	}
	p.parts[k] = pt
	return pt, nil
}

// key is the shortcut key the daemon must answer for (graph, seed) at
// default build options.
func (p *plan) key(gi int, seed int64) (service.Fingerprint, error) {
	pt, err := p.partition(gi, seed)
	if err != nil {
		return 0, err
	}
	return service.ShortcutKey(p.fps[gi], pt, shortcut.Options{}), nil
}

// stream is one caller's deterministic request sequence.
type stream struct {
	p    *plan
	conn int
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (p *plan) stream(conn int) *stream {
	rng := rand.New(rand.NewSource(p.seed*7919 + int64(conn)))
	s := &stream{p: p, conn: conn, rng: rng}
	if p.w.pick == pickZipf && len(p.w.catalog) > 1 {
		s.zipf = rand.NewZipf(rng, 1.3, 1, uint64(len(p.w.catalog)-1))
	}
	return s
}

func (s *stream) next() request {
	w := s.p.w
	n := s.n
	s.n++
	r := request{node: (n + s.conn) % w.nodes}
	r.write = w.writeFrac >= 1 || (w.writeFrac > 0 && s.rng.Float64() < w.writeFrac)
	switch w.pick {
	case pickZipf:
		if s.zipf != nil {
			r.graph = int(s.zipf.Uint64())
		}
	case pickRoundRobin:
		r.graph = (n*callers + s.conn) % len(w.catalog)
	default:
		r.graph = s.rng.Intn(len(w.catalog))
	}
	if r.write {
		r.seed = s.p.base + freshOffset + int64(n*callers+s.conn)
	} else {
		seeds := s.p.keySeeds[r.graph]
		r.seed = seeds[s.rng.Intn(len(seeds))]
	}
	switch w.encoding {
	case encBinary:
		r.binary = true
	case encAlternate:
		r.binary = n%2 == 1
	}
	return r
}

// firstRequests is the workload's seeded sequence as the callers start it,
// interleaved: the input of the traced replay.
func (p *plan) firstRequests(n int) []request {
	streams := make([]*stream, callers)
	for c := range streams {
		streams[c] = p.stream(c)
	}
	out := make([]request, n)
	for i := range out {
		out[i] = streams[i%callers].next()
	}
	return out
}
