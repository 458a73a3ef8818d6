package service

import "sync/atomic"

// counters is the engine's hot-path instrumentation: every field is atomic
// so job and cache paths never synchronize just to count.
type counters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	builds    atomic.Uint64
	buildErrs atomic.Uint64
	evictions atomic.Uint64
	buildNs   atomic.Int64

	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsCanceled atomic.Uint64
	jobPanics    atomic.Uint64
	jobNs        atomic.Int64
	queueDepth   atomic.Int64
	running      atomic.Int64

	storeHits     atomic.Uint64
	storeMisses   atomic.Uint64
	storeWrites   atomic.Uint64
	storeErrs     atomic.Uint64
	persistPanics atomic.Uint64

	peerHits   atomic.Uint64
	peerMisses atomic.Uint64
	peerErrs   atomic.Uint64
}

// Stats is an atomic snapshot of the engine's counters, safe to read while
// the engine is serving traffic. Rates and averages are derived, not
// stored, so the snapshot is internally consistent enough for monitoring
// (individual counters are read independently, not under one lock).
type Stats struct {
	// Cache counters. Hits counts completed-entry lookups and singleflight
	// joins; Misses counts lookups that started a build.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CachedEntries  int    `json:"cached_entries"`

	// Build counters: completed shortcut constructions and their total
	// latency (singleflight means Builds can be far below CacheMisses+Hits).
	Builds        uint64 `json:"builds"`
	BuildErrors   uint64 `json:"build_errors"`
	BuildTotalNs  int64  `json:"build_total_ns"`
	AvgBuildNanos int64  `json:"avg_build_ns"`

	// Job counters for the worker pool. JobPanics counts jobs that
	// panicked; each also counts in JobsFailed.
	JobsDone     uint64 `json:"jobs_done"`
	JobsFailed   uint64 `json:"jobs_failed"`
	JobsCanceled uint64 `json:"jobs_canceled"`
	JobPanics    uint64 `json:"job_panics"`
	JobTotalNs   int64  `json:"job_total_ns"`
	QueueDepth   int64  `json:"queue_depth"`
	RunningJobs  int64  `json:"running_jobs"`

	// Durable-store counters, all zero when no Store is configured.
	// StoreHits counts cache misses served from the store without a
	// rebuild (the warm-start path); StoreMisses counts misses that went
	// on to build; StoreWrites counts persisted builds; StoreErrors counts
	// failed store reads and writes (persistence is best-effort — alert on
	// this counter). PersistPanics counts detached persists that panicked
	// (recovered; each also counts in StoreErrors).
	StoreHits     uint64 `json:"store_hits"`
	StoreMisses   uint64 `json:"store_misses"`
	StoreWrites   uint64 `json:"store_writes"`
	StoreErrors   uint64 `json:"store_errors"`
	PersistPanics uint64 `json:"persist_panics"`

	// Cluster peer-fetch counters, all zero unless Config.Peers is set.
	// PeerHits counts store misses served by fetching a peer's record
	// (re-verified locally); PeerMisses counts fetches no reachable peer
	// could serve (the request went on to build); PeerErrors counts failed
	// fetches — unreachable replicas or records that failed verification.
	PeerHits   uint64 `json:"peer_hits"`
	PeerMisses uint64 `json:"peer_misses"`
	PeerErrors uint64 `json:"peer_errors"`

	// Graphs is the number of distinct graphs registered.
	Graphs int `json:"graphs"`

	// Cluster router/sync gauges, filled in by the layer that owns the
	// internal/cluster instance (the locshortd stats handler), like the
	// Async* fields below; the engine leaves them zero. Forwards counts
	// requests this node routed to a key's owner; ForwardErrors counts
	// forwards that failed over to local serving (owner down). SyncPulls
	// counts records the anti-entropy loop imported from peers across
	// SyncRounds rounds; PeersReachable is the last round's live peer
	// count.
	Forwards       uint64 `json:"forwards"`
	ForwardErrors  uint64 `json:"forward_errors"`
	SyncPulls      uint64 `json:"sync_pulls"`
	SyncRounds     uint64 `json:"sync_rounds"`
	SyncErrors     uint64 `json:"sync_errors"`
	PeersReachable int64  `json:"peers_reachable"`

	// Async job-manager gauges, filled in by the layer that owns the
	// internal/jobs manager (the locshortd stats handler) — the engine
	// itself runs no async jobs, so Engine.Stats leaves them zero.
	// AsyncQueued and AsyncRunning are gauges over every known job
	// (including records recovered from the durable store); a drained
	// queue is AsyncQueued == AsyncRunning == 0. AsyncSubmitted,
	// AsyncRetries, and AsyncPersistErrors count events in the current
	// process lifetime; alert on AsyncPersistErrors like StoreErrors.
	// AsyncPanics counts executions that panicked (each also counts in
	// AsyncFailed).
	AsyncSubmitted     uint64 `json:"async_submitted"`
	AsyncQueued        int64  `json:"async_queued"`
	AsyncRunning       int64  `json:"async_running"`
	AsyncDone          uint64 `json:"async_done"`
	AsyncFailed        uint64 `json:"async_failed"`
	AsyncCanceled      uint64 `json:"async_canceled"`
	AsyncRetries       uint64 `json:"async_retries"`
	AsyncPersistErrors uint64 `json:"async_persist_errors"`
	AsyncRecoverSkip   uint64 `json:"async_recover_skipped"`
	AsyncPanics        uint64 `json:"async_panics"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

func (c *counters) snapshot() Stats {
	s := Stats{
		CacheHits:      c.hits.Load(),
		CacheMisses:    c.misses.Load(),
		CacheEvictions: c.evictions.Load(),
		Builds:         c.builds.Load(),
		BuildErrors:    c.buildErrs.Load(),
		BuildTotalNs:   c.buildNs.Load(),
		JobsDone:       c.jobsDone.Load(),
		JobsFailed:     c.jobsFailed.Load(),
		JobsCanceled:   c.jobsCanceled.Load(),
		JobPanics:      c.jobPanics.Load(),
		JobTotalNs:     c.jobNs.Load(),
		QueueDepth:     c.queueDepth.Load(),
		RunningJobs:    c.running.Load(),
		StoreHits:      c.storeHits.Load(),
		StoreMisses:    c.storeMisses.Load(),
		StoreWrites:    c.storeWrites.Load(),
		StoreErrors:    c.storeErrs.Load(),
		PersistPanics:  c.persistPanics.Load(),
		PeerHits:       c.peerHits.Load(),
		PeerMisses:     c.peerMisses.Load(),
		PeerErrors:     c.peerErrs.Load(),
	}
	if s.Builds > 0 {
		s.AvgBuildNanos = s.BuildTotalNs / int64(s.Builds)
	}
	return s
}
