// Package obs is the repo's dependency-free observability core: atomic
// counters and gauges, fixed-bucket latency histograms with Prometheus
// text-format exposition, a lightweight span tracer with ring-buffer
// retention for recent traces, and a structured key=value logger with
// per-request IDs.
//
// Role in the DAG: obs sits below every serving layer and imports only the
// standard library, so any package — shortcut.Builder stage timings,
// service.Engine cache/store/build histograms, internal/jobs queue gauges,
// internal/store segment instrumentation, the locshortd HTTP layer — can
// record into one Registry without new dependency edges. The daemon
// exposes the Registry at GET /metrics and the Tracer at GET /v1/traces;
// cmd/locshortctl (`top`) and cmd/locshortbench scrape and re-parse that
// output through ParsePrometheus, so the exposition and the consumers share
// one implementation of the format.
//
// Design constraints, in order:
//
//   - Hot-path recording must not allocate: Counter.Add, Gauge.Set, and
//     Histogram.Observe are a handful of atomic operations (verified by
//     TestHotPathDoesNotAllocate). Warm cache hits in the engine record
//     through these and nothing else.
//   - Exposition cost is paid by the scraper, not the request path:
//     func-backed families read the owning layer's existing counters at
//     scrape time, so layers are never forced to dual-write.
//   - Traces are for the cold path only (a shortcut construction is
//     milliseconds; a handful of time.Now calls and one small slice are
//     noise there) and are immutable once published, so readers of the
//     ring never race writers.
//
// There is no paper mapping here: obs measures the Ghaffari–Haeupler
// construction (PODC 2021) rather than implementing any part of it. The
// stage names it reports — BFS forest, doubling-search levels, part-set
// sweep, Case (I) assembly — are the phases of the Theorem 1.5/3.1
// pipeline as implemented by internal/shortcut.
//
// The nil-no-op contract is mechanically enforced: instrument types carry
// //locshort:nilsafe and the internal/analysis obsnil analyzer
// (DESIGN.md §12) requires every pointer method to guard or delegate;
// cmd/locshortlint fails CI otherwise.
package obs
