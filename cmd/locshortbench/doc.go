// Command locshortbench is the repository's benchmark: one process that
// builds cmd/locshortd from source, launches it on loopback (one node, or
// a three-node cluster), drives four seeded workloads against it in a
// closed loop, checks the answers, and prints every end-to-end metric by
// name and unit. A traced mode replays the same requests in-process
// through each layer's public functions and reports per-layer metrics.
// BENCHMARK.json at the repository root names the workloads and metrics,
// with each end-to-end metric's direction and regression bound.
//
// The benchmark is its own Go module (it imports the repository through a
// replace directive), so `go build ./...` and `go test ./...` at the root
// neither build nor test it. It reads /proc and so runs on Linux only.
//
// # Running
//
// From the repository root:
//
//	bash cmd/locshortbench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//
// run.sh points the go command's build cache, GOPATH, temporary files and
// telemetry (under XDG_CONFIG_HOME) into .bench_build/, so a run writes
// nothing outside the checkout; the benchmark then builds
// .bench_build/bin/locshortd, runs, and removes its daemons' data.
// Equivalent without the wrapper (which leaves the go command's defaults):
//
//	go -C cmd/locshortbench run . -seed 1
//
// Each run prints "workload metric value unit" lines (percentiles with
// their sample count n=), the ungated extras (p95 and p99, per-class
// medians, error rate, the share of answers per source), the run
// environment, and as its
// last line a JSON summary {"correct", "attempted", "failed", "metrics"}.
// It appends the full record — metrics, extras, correctness violations
// and environment — to .bench_build/results.jsonl (-out), one JSON object
// per line. A traced run (-trace 1) prints the per-layer metrics instead
// of the end-to-end ones, an attribution row per workload, and writes the
// spans of the replay to .bench_build/spans.jsonl (-spans).
//
// The run environment recorded with every result is the git commit (from
// the binary's build info; "unknown" outside a git checkout), the Go
// version, nproc, GOMAXPROCS, the host's steal share over the timed window
// (from /proc/stat) and the generator's own CPU time over it. Noisy
// sessions stay visible in the results; nothing is discarded.
//
// # Comparing two commits
//
//	locshortbench -compare parent.jsonl change.jsonl
//
// prints, for every workload × end-to-end metric of BENCHMARK.json and
// then every ungated metric the workload records, each side's median and
// quartiles (quartiles as Python's statistics.quantiles(values, n=4)
// computes them), the paired win fraction, and a verdict:
//
//   - improved: the change won at least 9/10 of the pairs (ties count for
//     neither side), its median is better, and the medians differ by more
//     than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound; for an ungated metric, the mirror of improved;
//   - unresolved: the parent's own spread (interquartile range over
//     median) is wider than the bound, and not every change run beats
//     every parent run; for an ungated metric, neither improved nor worse;
//   - no-worse: otherwise.
//
// The A/B protocol: build nothing by hand; run at least ten pairs, each
// pair one parent run and one change run with identical flags and seed,
// alternating which side runs first, each side appending to its own
// results file. Pairs are matched by order in the two files. A claim must
// also hold on a seed not used while the change was written. Interleaving
// is not optional: two sets of ten runs of the same code, ten minutes
// apart, judged warm-hit's median latency and CPU per request "worse"
// (0/10 wins) — the machine had slowed down.
//
// # Load shape
//
// Two callers in a closed loop, each holding one keep-alive connection
// per daemon and sending its next request only when the previous answer
// is fully read; latency runs from the request write until the last byte
// of the answer. Callers of shortcuts are distributed algorithms that wait
// for a shortcut before running their rounds, so a closed loop is the
// honest model. On a two-vCPU Xeon VM (Linux 6.18, Go 1.24), an open-loop
// generator measured its own timer granularity: 0.5–0.8 ms of sleep
// lateness against a ~0.1 ms warm request. The callers speak
// HTTP/1.1 directly on the socket and run on one P during the window:
// net/http's client spent about 50 µs of CPU per request, as much as the
// daemon, against about 17 µs for this client, and with two vCPUs the two
// processes compete for the same cores; one P keeps the generator's idle
// Ps from spinning on them.
//
// Each run pre-warms, then runs one second of untimed traffic, then times
// -seconds of traffic bracketed by server-side snapshots (/metrics,
// /v1/stats, /proc). The daemons run with default flags plus -quiet: the
// per-request log line is an operator option, not part of the serving
// path being measured. A cluster is launched all at once, so a node can
// probe a peer before the peer listens and then hold it in the cluster's
// 2 s down backoff, serving that peer's keys itself; set-up waits the
// backoff out after the last node binds, so timed traffic follows the
// ring. (For a torus the locally built shortcut can differ from the
// owner's under the same key: peers register a broadcast graph from its
// canonical payload, whose adjacency order differs from the spec's. The
// correctness checks below caught this before the wait was added.)
//
// # Workloads
//
// Inputs derive from -seed: catalog graphs are fixed, partition seeds,
// popularity draws and entry nodes are seeded. The daemon sees only the
// generated requests.
//
//   - warm-hit: one node with a data directory. Catalog grid:16x16,
//     torus:16x16, wheel:200, ktree:300,4; partition blobs:16; four seeds
//     per graph, so 16 keys, all built through both encodings during
//     set-up. Traffic picks the graph by Zipf(1.3) and the seed uniformly,
//     alternating JSON and binary. Every answer is a resident cache hit,
//     so all time goes to the HTTP stack, wire decode, the partition memo,
//     the engine cache, and the stored-payload read or the JSON encode;
//     the Builder, Measure and store writes do no work, so a construction
//     change should not move it. The key seeds are chosen so that no
//     cache shard holds more than its share of the default 64 entries
//     (4 in each of 16 shards); otherwise some seeds would evict.
//   - cold-build: one node. Catalog grid:64x64, torus:32x32, ktree:600,4
//     in round-robin, blobs:32, JSON, every request a never-used seed.
//     Every answer runs partition parsing, the Builder, the first Measure
//     and a detached store append; cache hits and store reads do nothing,
//     so a serving-path change should not move it. Measure dominates
//     (tens of milliseconds on grid:64x64 against about a millisecond of
//     construction).
//   - store-mixed: before launch, the benchmark writes 1024 records
//     in-process (grid:32x32 and grid:24x24 × 512 seeds, blobs:16) in
//     1 MiB segments, so most land in sealed, memory-mapped segments; the
//     daemon warm-starts on that directory. Traffic is binary: 90% reads
//     uniform over the 1024 keys, 10% never-used seeds. The working set is
//     16× the cache, so reads exercise store decode off mapped segments,
//     cache eviction, and the warm-start replay (in setup_s); the writes
//     append to the active segment beside the reads, so a read gain that
//     costs writes shows. The engine persists writes detached from the
//     answers, so under CPU contention from another process the persists
//     back up during the window and the daemon's clean stop drains them
//     (over 15 s was seen). Grids only: a restarted daemon decodes its graphs
//     from the store, and seeded blobs partitions depend on adjacency
//     order, which the canonical decode preserves for grids but not for
//     torus wrap edges — a torus key would be rebuilt, not read.
//   - cluster-3: three nodes, each with its own data directory, a static
//     ring at default cluster flags. Catalog as warm-hit, eight seeds per
//     graph, pre-warmed through every node. The entry node rotates per
//     request, so about two thirds of requests are forwarded, on the JSON
//     relay and the binary-frame relay in turn: the warm-hit work plus one
//     hop, so a forward-path change moves this and not warm-hit.
//
// # End-to-end metrics
//
// Every run reports, per workload, the metrics BENCHMARK.json gates:
//
//	setup_s                daemon launch to the first timed request: warm
//	                       start, ingest, pre-warm (and on cluster-3 the
//	                       backoff wait); median of at least three set-ups
//	                       per run, up to nine while they take under 1 s
//	server_allocs_per_req  locshort_go_mallocs_total delta of every daemon,
//	                       per successful request
//	peak_rss_mb            VmHWM summed over the daemons, read once a fixed
//	                       number of requests per workload has completed
//	                       (n= gives it): the daemon's partition memo keeps
//	                       every never-used seed's partition, so on
//	                       cold-build and store-mixed a reading at the end of
//	                       the window grew with the machine's speed
//
// and beside them, printed, recorded and judged by -compare but not gated:
//
//	throughput_rps         successful requests per second of the window
//	latency_p50_ms         median request latency, and latency_p95_ms and
//	                       latency_p99_ms with their sample counts (p95 is
//	                       the highest percentile that keeps ten samples
//	                       beyond it on cold-build, which completes about
//	                       300 requests in a 10 s window)
//	server_cpu_ms_per_req  utime+stime of every daemon over the window,
//	                       per successful request
//	json_p50_ms, binary_p50_ms  warm-hit and cluster-3
//	read_p50_ms, write_p50_ms   store-mixed
//	error_rate             failed ÷ attempted; a non-200 answer is a failure
//	source.<source>        the share of answers per source
//
// The time-based metrics are not gated because they follow the machine,
// not the code. On the two-vCPU Xeon VM above, with steal near zero, the
// same binary's warm-hit throughput ranged from 22.7k to 37.3k requests per
// second over twenty runs in twenty minutes, and server CPU per request
// moved with it (+36% between two sets of ten runs ten minutes apart).
// Across ten consecutive runs the interquartile range over the median
// reached 32% for warm-hit's median latency and 29% for its CPU per
// request, beyond the widest bound (25%) BENCHMARK.json may set. Compute,
// memory and pipe ping-pong probes stayed within ±7–9% over 40 s, so the
// drift is slow and a short in-run calibration would not cancel it.
// Allocation counts and peak memory do not follow the machine
// (cold-build's allocations vary a few percent, because the speculative
// parallel build's abandoned levels allocate according to scheduling), so
// they carry the gate; a change that claims a speed-up shows it in the
// time-based metrics by the paired rule of -compare. The error rate is not
// gated because it is zero on a healthy run, and the per-class medians
// because not every workload has every class.
//
// # Correctness
//
// Every 37th timed answer per caller (at most 24 per caller) is kept and
// checked after the window: the answered key equals the client's own
// service.ShortcutKey; the canonical record payload (the binary body, or a
// binary re-fetch for a JSON answer) decodes with
// store.DecodeShortcutPayload; shortcut.Measure of it meets the E2 bounds
// congestion ≤ c·iterations and dilation ≤ (b+1)(2·depth+1); and a JSON
// answer reported exactly that congestion and dilation. On store-mixed,
// every read must report a source other than "built". Any violation makes
// "correct" false and the exit status 1.
//
// # Per-layer metrics
//
// A traced run (-trace 1) sets up once, runs the same timed window, then:
// probes the idle daemon, stops it, replays the workload's first seeded
// requests in-process, and runs the layer panel. Each metric below is
// followed by → the end-to-end metric and workload it should move.
//
// From the window's server-side deltas and the idle probes:
//
//	locshortd.client_mean_us        the callers' mean latency
//	locshortd.server_mean_us        the daemon's own POST /v1/shortcuts mean,
//	                                Δsum/Δcount of locshort_http_request_seconds
//	                                (its buckets are too coarse for quantiles);
//	                                on cluster-3 a forwarded request is counted
//	                                at the entry (hop included) and at the owner
//	                                → latency_p50_ms, all workloads
//	locshortd.unattributed_us       client mean minus server mean: socket,
//	                                kernel, HTTP parsing outside the handler
//	                                → latency_p50_ms on warm-hit
//	locshortd.idle_rtt_us.json      sequential requests for a resident key
//	locshortd.idle_rtt_us.binary    sent to its owner on the idle deployment
//	                                → latency_p50_ms on warm-hit
//	service.cache_hit_ratio         workload shape checks from /v1/stats:
//	service.store_hit_ratio         about 1 cache hit per request on warm-hit,
//	service.builds_per_req          builds ≈ requests on cold-build, mostly
//	cluster.forwarded_share         store hits on store-mixed, forwards ≈ 2/3
//	                                of requests on cluster-3
//	store.open_s                    store.Open of node 0's stopped data
//	                                directory, the replay a warm start pays
//	                                → setup_s on store-mixed
//
// From the traced replay: the workload's first requests (2000; 45 on
// cold-build, where each is a full build plus Measure) on one goroutine
// against an in-process service.Engine configured like the daemon
// (store.Open on its own directory, cache 64, metrics and build traces
// on), in the daemon's order: request decode (wire.DecodeShortcutRequest,
// or the JSON decode) → cli.ParsePartition behind the daemon's memo →
// service.ShortcutKey → Engine.Build → Cached.Quality plus the JSON
// encode, or Store.ShortcutPayload. Each call is a span with request id,
// name, start, end and parent, kept in memory and written to spans.jsonl
// at the end. The key span is the router's ShortcutKey; a one-node daemon
// computes the key only inside Build, so there it counts once too often.
//
//	trace.decode_self_us     median self time per layer span
//	trace.partition_self_us  (self = span minus its children)
//	trace.key_self_us        → latency_p50_ms on the workload traced
//	trace.engine_self_us
//	trace.render_self_us
//	trace.glue_self_us       the request span's own time between layers
//	trace.remainder_us       daemon mean minus the in-process path: what
//	                         the attribution leaves to the HTTP server,
//	                         mux, middleware, worker hand-offs and load
//	trace_overhead_pct       best traced pass against best untraced pass,
//	                         three interleaved pairs, each pass on a fresh
//	                         stack; a replay that changes no state (all
//	                         keys pre-warmed, no writes) runs its sequence
//	                         ten times per pass to be long enough to time
//
// The attribution row states, in means (which add up, unlike medians):
// client mean = the layers' self times + locshortd.unattributed_us +
// remainder.
//
// The layer panel runs in every traced run, the same way whatever the
// workload, so it is comparable across workloads. Rounds of each call are
// interleaved with the related calls; time per call is the median over
// five rounds, allocations the minimum (best-of, as internal/bench
// measures its stage-collection overhead). Families: grid64 (grid:64x64,
// blobs:32), torus32 (torus:32x32, blobs:32), ktree600 (ktree:600,4,
// blobs:32), grid32 (grid:32x32, blobs:16); the warm-path calls use
// grid:16x16, blobs:16.
//
//	wire.decode_request_ns, wire.decode_request_allocs
//	    → binary_p50_ms and server_allocs_per_req on warm-hit
//	cli.parse_partition_ns.<family>
//	    → latency_p50_ms on cold-build, write_p50_ms on store-mixed; not
//	      warm-hit, where partitions are memoized
//	service.shortcut_key_ns, service.engine_hit_ns, service.engine_hit_allocs
//	    → latency_p50_ms, server_cpu_ms_per_req, server_allocs_per_req on
//	      warm-hit and cluster-3
//	service.engine_store_hit_ns  (a one-entry cache over mapped records)
//	    → read_p50_ms on store-mixed
//	shortcut.build_ns.<family> (default options), shortcut.build_seq_ns.<family>
//	(Parallelism 1), shortcut.build_allocs.<family> (sequential)
//	shortcut.stage_ns.{choose_root,bfs_tree,level,sweep,assemble} (grid64,
//	from Result.Stages with CollectStages; levels summed)
//	    → latency_p50_ms, throughput_rps, server_cpu_ms_per_req on cold-build
//	shortcut.measure_ns.<family>, shortcut.measure_allocs.grid64
//	    → latency_p50_ms on cold-build, where Measure dominates; no
//	      movement on store-mixed or warm-hit
//	store.put_shortcut_ns.{grid64,grid32}  (append plus fsync)
//	    → write_p50_ms on store-mixed, server_cpu_ms_per_req on cold-build
//	store.get_shortcut_ns.grid32  (decode off a sealed, mapped segment)
//	store.payload_ns.mmap, store.payload_ns.pread, store.payload_allocs.mmap
//	    → read_p50_ms on store-mixed; binary_p50_ms on warm-hit, which
//	      reads the active segment with pread
//	cluster.owner_ns  (Ring.Owner on a three-node, 64-vnode ring)
//	cluster.forward_hop_us.json, cluster.forward_hop_us.binary
//	    idle requests through a non-owner minus the same through the
//	    owner, on a three-node cluster the panel launches
//	    → latency_p50_ms on cluster-3; no movement on warm-hit
package main
