package service

import (
	"strings"

	"locshort/internal/obs"
	"locshort/internal/shortcut"
)

// engineMetrics holds the engine's observed histograms. Counters are NOT
// duplicated here: the engine's existing atomic counters stay the single
// source of truth, exported as func-backed families read at scrape time, so
// the hot path records each event exactly once. Histogram pointers are
// resolved at engine construction, so recording is a few atomic adds with
// no registry lookups — warm cache hits stay allocation-free.
type engineMetrics struct {
	buildSeconds     *obs.Histogram // shortcut construction wall time
	loadSeconds      *obs.Histogram // durable-store shortcut load wall time
	persistSeconds   *obs.Histogram // detached store persist wall time
	measureSeconds   *obs.Histogram // first Quality() measurement per entry
	jobSeconds       *obs.Histogram // worker-pool job execution time
	peerFetchSeconds *obs.Histogram // successful cluster peer fetch wall time

	// stageSeconds aggregates Builder stage timings by stage name; the
	// per-delta' level stages collapse into one "level" series to keep
	// cardinality fixed.
	stageSeconds map[string]*obs.Histogram
}

// builderStageNames are the fixed-cardinality stage series; doubling-search
// levels (level(d=N)) aggregate under "level".
var builderStageNames = []string{"choose_root", "bfs_tree", "sweep", "assemble", "level"}

func newEngineMetrics(r *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		buildSeconds: r.Histogram("locshort_engine_build_seconds",
			"Wall time of shortcut constructions (cache+store misses).", nil, nil),
		loadSeconds: r.Histogram("locshort_engine_store_load_seconds",
			"Wall time of shortcut loads served from the durable store.", nil, nil),
		persistSeconds: r.Histogram("locshort_engine_persist_seconds",
			"Wall time of detached shortcut persists to the durable store.", nil, nil),
		measureSeconds: r.Histogram("locshort_engine_measure_seconds",
			"Wall time of first-time quality measurement per cached shortcut.", nil, nil),
		jobSeconds: r.Histogram("locshort_engine_job_seconds",
			"Execution time of worker-pool jobs (excludes queue wait).", nil, nil),
		peerFetchSeconds: r.Histogram("locshort_engine_peer_fetch_seconds",
			"Wall time of shortcut loads served by fetching a peer node's record.", nil, nil),
		stageSeconds: make(map[string]*obs.Histogram, len(builderStageNames)),
	}
	for _, name := range builderStageNames {
		m.stageSeconds[name] = r.Histogram("locshort_builder_stage_seconds",
			"Wall time of Builder construction stages (doubling-search levels aggregate under stage=\"level\").",
			nil, obs.Labels{"stage": name})
	}

	c := &e.counters
	counter := func(name, help string, labels obs.Labels, load func() uint64) {
		r.CounterFunc(name, help, labels, func() float64 { return float64(load()) })
	}
	counter("locshort_engine_cache_hits_total", "Cache lookups served by a resident entry or singleflight join.", nil, c.hits.Load)
	counter("locshort_engine_cache_misses_total", "Cache lookups that started a construction.", nil, c.misses.Load)
	counter("locshort_engine_cache_evictions_total", "Cached shortcuts evicted by LRU capacity.", nil, c.evictions.Load)
	counter("locshort_engine_builds_total", "Completed shortcut constructions.", nil, c.builds.Load)
	counter("locshort_engine_build_errors_total", "Failed shortcut constructions.", nil, c.buildErrs.Load)
	counter("locshort_engine_jobs_total", "Worker-pool jobs by outcome.", obs.Labels{"outcome": "done"}, c.jobsDone.Load)
	counter("locshort_engine_jobs_total", "Worker-pool jobs by outcome.", obs.Labels{"outcome": "failed"}, c.jobsFailed.Load)
	counter("locshort_engine_jobs_total", "Worker-pool jobs by outcome.", obs.Labels{"outcome": "canceled"}, c.jobsCanceled.Load)
	counter("locshort_engine_job_panics_total", "Worker-pool jobs that panicked (recovered; each also counts as failed).", nil, c.jobPanics.Load)
	counter("locshort_engine_store_reads_total", "Durable-store shortcut lookups by outcome.", obs.Labels{"outcome": "hit"}, c.storeHits.Load)
	counter("locshort_engine_store_reads_total", "Durable-store shortcut lookups by outcome.", obs.Labels{"outcome": "miss"}, c.storeMisses.Load)
	counter("locshort_engine_peer_reads_total", "Cluster peer shortcut fetches by outcome.", obs.Labels{"outcome": "hit"}, c.peerHits.Load)
	counter("locshort_engine_peer_reads_total", "Cluster peer shortcut fetches by outcome.", obs.Labels{"outcome": "miss"}, c.peerMisses.Load)
	counter("locshort_engine_peer_reads_total", "Cluster peer shortcut fetches by outcome.", obs.Labels{"outcome": "error"}, c.peerErrs.Load)
	counter("locshort_engine_store_writes_total", "Persisted shortcut builds.", nil, c.storeWrites.Load)
	counter("locshort_engine_store_errors_total", "Failed durable-store reads and writes (best-effort persistence; alert here).", nil, c.storeErrs.Load)
	counter("locshort_engine_persist_panics_total", "Detached shortcut persists that panicked (recovered; each also counts as a store error).", nil, c.persistPanics.Load)

	r.GaugeFunc("locshort_engine_queue_depth", "Accepted-but-unstarted worker-pool jobs.", nil,
		func() float64 { return float64(c.queueDepth.Load()) })
	r.GaugeFunc("locshort_engine_jobs_running", "Worker-pool jobs currently executing.", nil,
		func() float64 { return float64(c.running.Load()) })
	r.GaugeFunc("locshort_engine_cache_entries", "Built shortcuts resident in the cache.", nil,
		func() float64 { return float64(e.cache.len()) })
	r.GaugeFunc("locshort_engine_graphs", "Distinct graphs registered.", nil, func() float64 {
		e.mu.RLock()
		n := len(e.graphs)
		e.mu.RUnlock()
		return float64(n)
	})
	return m
}

// observeStages records a completed construction's stage breakdown into the
// fixed-cardinality stage histograms. Cold path only.
func (m *engineMetrics) observeStages(stages []shortcut.Stage) {
	if m == nil {
		return
	}
	for _, st := range stages {
		name := st.Name
		if strings.HasPrefix(name, "level(") {
			name = "level"
		}
		if h, ok := m.stageSeconds[name]; ok {
			h.Observe(st.Dur)
		}
	}
}
