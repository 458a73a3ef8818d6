package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"locshort/internal/cluster"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// bench is what one invocation shares across its workload runs.
type bench struct {
	work     string // scratch directory for daemon data and logs
	daemon   string // built locshortd binary
	setups   int    // minimum set-ups per untraced run; setup_s is their median
	warmup   time.Duration
	seconds  time.Duration
	spans    string   // traced runs write their spans here
	families []family // layer panel instances
	hit      family   // the panel's resident-hit instance
	rounds   rounds   // how the layer panel times each call
	probes   int      // sequential requests per idle probe variant
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload run: the record appended to the results file.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    []metric `json:"metrics"`
	Extra      []metric `json:"extra,omitempty"`
	Violations []string `json:"violations,omitempty"`
	Env        runEnv   `json:"env"`
	// attribution is printed, not recorded: its numbers are in Metrics.
	attribution string
}

// runEnv records the conditions of a run, so noisy sessions stay visible
// in the results instead of being discarded.
type runEnv struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Started    string  `json:"started"`
	StealShare float64 `json:"steal_share"`
	// GeneratorCPUS is this process's CPU time over the timed window.
	GeneratorCPUS float64 `json:"generator_cpu_s"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// run executes one workload at one seed: set-up, timed window,
// correctness checks, and for a traced run the probes, the in-process
// replay and the layer panel.
func (b *bench) run(ctx context.Context, w *workload, seed int64, traced bool) (res *result, err error) {
	p, err := newPlan(w, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res = &result{
		Workload: w.name, Seed: seed, Seconds: b.seconds.Seconds(), Trace: traced,
		Env: runEnv{
			Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Started: time.Now().UTC().Format(time.RFC3339),
		},
	}
	var dataset string
	if w.dataset {
		dataset = filepath.Join(dir, "dataset")
		if err := writeDataset(p, dataset); err != nil {
			return nil, fmt.Errorf("write dataset: %w", err)
		}
	}

	// Set up several times and keep the last deployment; setup_s is the
	// median. Cheap set-ups repeat until their total reaches a second.
	minSetups, maxSetups := b.setups, 3*b.setups
	if traced {
		minSetups, maxSetups = 1, 1
	}
	var dep *deployment
	defer func() {
		if serr := dep.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	var setupS []float64
	var setupTotal float64
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < 1); i++ {
		if err := dep.stop(); err != nil {
			return nil, err
		}
		dirs := make([]string, w.nodes)
		for j := range dirs {
			dirs[j] = dataset
			if dataset == "" {
				dirs[j] = filepath.Join(dir, fmt.Sprintf("setup%d", i), fmt.Sprintf("node%d", j))
			}
		}
		start := time.Now()
		if dep, err = b.deploy(ctx, p, dirs, dir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupTotal += setupS[i]
	}

	win, err := runWindow(ctx, p, dep, b.warmup, b.seconds)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Env.StealShare, res.Env.GeneratorCPUS = win.steal, win.genCPU.Seconds()
	res.Violations = append(win.violations, checkSamples(p, dep, win.samples)...)
	res.Correct = len(res.Violations) == 0
	res.Extra = windowExtras(win)

	if !traced {
		res.Metrics = endToEnd(setupS, win)
		return res, nil
	}

	res.Metrics = windowLayers(win)
	rtt, err := b.idleProbe(ctx, p, dep)
	if err != nil {
		return nil, fmt.Errorf("idle probe: %w", err)
	}
	res.Metrics = append(res.Metrics, rtt...)
	node0 := dep.nodes[0].dir
	if err := dep.stop(); err != nil {
		return nil, err
	}
	open, err := storeOpenS(node0)
	if err != nil {
		return nil, err
	}
	res.Metrics = append(res.Metrics, metric{Name: "store.open_s", Value: open, Unit: "s"})

	rep, err := b.replay(ctx, p, filepath.Join(dir, "replay"), dataset)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Metrics = append(res.Metrics, rep.metrics(win)...)
	res.attribution = rep.attribution(w.name, win)

	panel, err := b.panel(ctx, filepath.Join(dir, "panel"))
	if err != nil {
		return nil, fmt.Errorf("layer panel: %w", err)
	}
	res.Metrics = append(res.Metrics, panel...)
	return res, nil
}

// deploy launches the workload's daemons on dirs and brings them to the
// state the timed window starts from: catalog ingested through every
// node, every resident key pre-warmed and durably persisted.
func (b *bench) deploy(ctx context.Context, p *plan, dirs []string, logDir string) (*deployment, error) {
	dep, err := launch(ctx, b.daemon, dirs, logDir)
	if err != nil {
		return nil, err
	}
	for _, d := range dep.nodes {
		for gi, spec := range p.w.catalog {
			var g struct {
				Graph string `json:"graph"`
			}
			if err := dep.postJSON(d.base, "/v1/graphs", map[string]any{"spec": spec}, &g); err != nil {
				dep.stop()
				return nil, fmt.Errorf("ingest %s: %w", spec, err)
			}
			if g.Graph != p.fps[gi].String() {
				dep.stop()
				return nil, fmt.Errorf("ingest %s: daemon fingerprint %s, client computes %s", spec, g.Graph, p.fps[gi])
			}
		}
	}
	if !p.w.prewarm {
		return dep, nil
	}
	for gi, seeds := range p.keySeeds {
		for _, s := range seeds {
			for n := range dep.nodes {
				for _, bin := range []bool{false, true} {
					if _, err := dep.postShortcut(p, request{graph: gi, seed: s, binary: bin, node: n}); err != nil {
						dep.stop()
						return nil, fmt.Errorf("pre-warm: %w", err)
					}
				}
			}
		}
	}
	if err := dep.awaitPersisted(ctx); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// awaitPersisted waits until every build the deployment made has landed
// in its store (persists are detached from the responses), so binary
// answers read the stored record rather than encoding a fresh one.
func (dep *deployment) awaitPersisted(ctx context.Context) error {
	deadline := time.Now().Add(time.Minute)
	for {
		var builds, written uint64
		for _, d := range dep.nodes {
			st, err := dep.stats(d)
			if err != nil {
				return err
			}
			if st.StoreErrors > 0 {
				return fmt.Errorf("%s: %d store errors", d.addr, st.StoreErrors)
			}
			builds += st.Builds
			written += st.StoreWrites
		}
		if written >= builds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d builds persisted after a minute", written, builds)
		}
		if err := sleepCtx(ctx, readyPoll); err != nil {
			return err
		}
	}
}

// writeDataset writes the plan's resident keys into a store at dir, in
// 1 MiB segments so most of them land in sealed (memory-mapped) segments.
// Without fsync: the daemon opens the directory after this process closes
// it, so durability against a crash buys nothing here.
func writeDataset(p *plan, dir string) error {
	st, err := store.Open(dir, store.Options{SegmentBytes: 1 << 20, NoSync: true})
	if err != nil {
		return err
	}
	if err := putKeys(st, p); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

func putKeys(st *store.Store, p *plan) error {
	bld := shortcut.NewBuilder()
	for gi, g := range p.graphs {
		if err := st.PutGraph(p.fps[gi], g); err != nil {
			return err
		}
		for _, s := range p.keySeeds[gi] {
			parts, err := p.partition(gi, s)
			if err != nil {
				return err
			}
			start := time.Now()
			r, err := bld.Build(g, parts, shortcut.Options{Parallelism: 1})
			if err != nil {
				return err
			}
			key := service.ShortcutKey(p.fps[gi], parts, shortcut.Options{})
			if err := st.PutShortcut(key, p.fps[gi], parts, shortcut.Options{}, r, time.Since(start)); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeOpenS times store.Open of a stopped daemon's directory: the replay
// a warm start pays. Median of three.
func storeOpenS(dir string) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

// idleProbe times sequential requests, alternating JSON and binary, for one
// resident key sent straight to its owner on an otherwise idle deployment.
func (b *bench) idleProbe(ctx context.Context, p *plan, dep *deployment) ([]metric, error) {
	gi, seed := 0, p.base
	if len(p.keySeeds[0]) > 0 {
		seed = p.keySeeds[0][0]
	}
	node, err := ownerNode(p, dep, gi, seed)
	if err != nil {
		return nil, err
	}
	r := request{graph: gi, seed: seed, node: node}
	if _, err := dep.postShortcut(p, r); err != nil {
		return nil, err
	}
	if err := dep.awaitPersisted(ctx); err != nil {
		return nil, err
	}
	lat := [2][]float64{}
	for i := 0; i < 2*b.probes; i++ {
		r.binary = i%2 == 1
		start := time.Now()
		if _, err := dep.postShortcut(p, r); err != nil {
			return nil, err
		}
		lat[i%2] = append(lat[i%2], float64(time.Since(start).Nanoseconds())/1e3)
	}
	return []metric{
		{Name: "locshortd.idle_rtt_us.json", Value: median(lat[0]), Unit: "us", Samples: b.probes},
		{Name: "locshortd.idle_rtt_us.binary", Value: median(lat[1]), Unit: "us", Samples: b.probes},
	}, nil
}

// ownerNode is the index of the node that owns (graph, seed)'s key: the
// only node of a one-node deployment, else the ring owner, computed
// exactly as the daemons compute it.
func ownerNode(p *plan, dep *deployment, gi int, seed int64) (int, error) {
	if dep.peers == nil {
		return 0, nil
	}
	ring, err := cluster.NewRing(dep.peers, 64)
	if err != nil {
		return 0, err
	}
	key, err := p.key(gi, seed)
	if err != nil {
		return 0, err
	}
	owner := ring.Owner(key)
	for i, a := range dep.peers {
		if a == owner {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ring owner %s is not a member", owner)
}

// endToEnd assembles the gated end-to-end metrics of an untraced run.
func endToEnd(setupS []float64, w *window) []metric {
	return []metric{
		{Name: "setup_s", Value: median(setupS), Unit: "s", Samples: len(setupS)},
		{Name: "server_allocs_per_req", Value: (w.after.mallocs - w.before.mallocs) / float64(w.ok), Unit: "allocs", Samples: w.ok},
		{Name: "peak_rss_mb", Value: w.rssMiB, Unit: "MiB", Samples: int(w.rssAt)},
	}
}

// windowExtras are reported beside the gated metrics: the time-based ones
// follow the machine's speed from minute to minute by more than any usable
// bound, the per-class medians exist only on the workloads that mix
// classes, and the error rate is zero on a healthy run.
func windowExtras(w *window) []metric {
	ok := float64(w.ok)
	lat := sortedMs(w.lat)
	out := []metric{
		{Name: "throughput_rps", Value: ok / w.elapsed.Seconds(), Unit: "req/s", Samples: w.ok},
		{Name: "latency_p50_ms", Value: quantile(lat, 0.50), Unit: "ms", Samples: len(lat)},
		{Name: "latency_p95_ms", Value: quantile(lat, 0.95), Unit: "ms", Samples: len(lat)},
		{Name: "latency_p99_ms", Value: quantile(lat, 0.99), Unit: "ms", Samples: len(lat)},
		{Name: "server_cpu_ms_per_req", Value: float64(w.after.cpuTicks-w.before.cpuTicks) *
			float64(clockTick.Milliseconds()) / ok, Unit: "ms", Samples: w.ok},
	}
	for k, l := range w.classLat {
		if len(l) > 0 {
			out = append(out, metric{Name: classNames[k] + "_p50_ms", Value: quantile(sortedMs(l), 0.5), Unit: "ms", Samples: len(l)})
		}
	}
	out = append(out, metric{Name: "error_rate", Value: float64(w.failed) / float64(w.attempted), Unit: "ratio", Samples: w.attempted})
	srcs := make([]string, 0, len(w.sources))
	for s := range w.sources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		out = append(out, metric{Name: "source." + s, Value: float64(w.sources[s]) / float64(w.ok), Unit: "ratio", Samples: w.sources[s]})
	}
	return out
}

// windowLayers derives the daemon-side per-layer metrics of a traced run's
// window from the /metrics and /v1/stats deltas.
func windowLayers(w *window) []metric {
	ok := float64(w.ok)
	d := func(a, b uint64) float64 { return float64(b - a) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	client := mean(w.lat) / 1e3
	server := serverMeanUs(w)
	hits, misses := d(w.before.hits, w.after.hits), d(w.before.misses, w.after.misses)
	sh, sm := d(w.before.storeHits, w.after.storeHits), d(w.before.storeMiss, w.after.storeMiss)
	return []metric{
		{Name: "locshortd.client_mean_us", Value: client, Unit: "us", Samples: w.ok},
		{Name: "locshortd.server_mean_us", Value: server, Unit: "us", Samples: int(w.after.shortN - w.before.shortN)},
		{Name: "locshortd.unattributed_us", Value: client - server, Unit: "us"},
		{Name: "service.cache_hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio"},
		{Name: "service.store_hit_ratio", Value: ratio(sh, sh+sm), Unit: "ratio"},
		{Name: "service.builds_per_req", Value: d(w.before.builds, w.after.builds) / ok, Unit: "ratio"},
		{Name: "cluster.forwarded_share", Value: (w.after.forwards - w.before.forwards) / ok, Unit: "ratio"},
	}
}
