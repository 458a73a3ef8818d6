// Package service is the concurrent shortcut-serving layer: a
// content-addressed cache of built shortcuts in front of the centralized
// construction, plus a bounded worker pool that executes build and query
// jobs (MST, MinCut, part-wise aggregation, quality measurement) against
// cached shortcuts, optionally backed by a durable snapshot store.
//
// The paper's economics motivate the design: a shortcut is built once per
// (graph, partition) and then amortized across many part-wise aggregation
// rounds (Definition 2.1, Section 2). The service makes that amortization
// explicit across *requests*: graphs are registered by content fingerprint,
// shortcuts are addressed by a key covering (graph, partition, build
// options), concurrent requests for the same key collapse into exactly one
// construction (singleflight), and completed constructions stay resident in
// a sharded LRU until evicted under capacity pressure. With a Store
// configured the amortization additionally spans *process lifetimes*:
// completed builds persist and cache misses are served store-first, so a
// restart costs a store read per shortcut instead of a rebuild.
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, internal/shortcut,
// internal/dist, and internal/cli (a construction whose request carries
// a key and a partition spec parses the spec). It defines the canonical content-addressing scheme
// (Fingerprint, ShortcutKey, AppendPartitionCanonical) that internal/store
// keys its records by; the Store interface lives here and internal/store
// implements it, keeping the dependency pointed downward. cmd/locshortd
// exposes the engine over HTTP; cmd/loadgen drives it. See DESIGN.md §4
// ("Service layer") and §6 ("Persistence and warm-start").
package service
