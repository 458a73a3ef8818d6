// Package store is the durable snapshot store behind locshortd's -data
// flag: a content-addressed, append-only segment log that persists graphs,
// partitions, and built shortcuts under the service layer's 64-bit
// fingerprints, so the ~50x warm-over-cold advantage of the shortcut cache
// survives restarts instead of being rebuilt in a cold-build stampede.
//
// The design leans on the same observation the serving layer does
// (DESIGN.md §4, following the shortcut-framework treatment of
// Ghaffari–Haeupler, PODC 2021): a shortcut is a pure function of
// (graph, partition, build options), so its content address is a durable
// identity. The store is self-verifying: every payload re-derives its
// record key. A graph payload is exactly the canonical byte encoding its
// fingerprint hashes (graph.AppendCanonical), so FNV-1a over the payload
// is the record key. A partition payload holds its labels as varints and
// hashes their canonical expansion (service.FingerprintPartition),
// streamed without building it. Every graph a shortcut is built on is in
// canonical form (graph.Canonical), so its edge IDs are canonical edge
// indexes: a shortcut payload holds them as they are, and decodes against
// the representative any process holds for the fingerprint. It holds no
// restriction tree: that is the graph's own BFS tree, and the decode takes
// it from the graph. A read without the request's partition decodes the
// shortcut and its partition record in one pass (decodeRecord). The
// store reads only the payload versions it writes, and the shortcut
// version is the construction epoch: Open skips a record of another
// version, its rebuild rewrites it, and a peer's is refused (encode.go).
//
// The store also carries the async job records of internal/jobs ('J'
// frames in the same segments). Those are the one non-content-addressed
// kind — keyed by random job ID, superseded in place as the job's state
// advances — and they are what lets a locshortd restart re-enqueue
// accepted-but-unfinished work (DESIGN.md §7).
//
// Durability model: framed records with CRC-32C checksums appended to
// numbered segment files, fsync per append, newest-record-wins replay,
// tombstones for graph deletion, torn-tail truncation and corrupt-record
// skipping on open, and write-tmp-then-rename compaction (GC). Reads
// serve payloads as subslices of a read-only mapping of each segment,
// made when the segment becomes active, so even the newest records are
// zero-copy; a frame of the active segment still has its checksum
// checked on every read, and Options.NoMmap (or an FS shim) keeps every
// read on pread. See the
// format comment in store.go and OPERATIONS.md for the operator runbook
// (locshortctl ls / inspect / verify / gc).
//
// The contract the layers above depend on is written down on Store and
// enforced by the conformance suite (conformance_suite_test.go). It is
// implemented by the record index (kvcore.go): the live-record map,
// tombstone drops, verification, listings, and the peer surface, over a
// payload store that holds the bytes — the append-only segment log. The
// suite also runs the index over a test-only object directory
// (objdir_test.go). See DESIGN.md §11.
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, internal/tree,
// internal/shortcut, internal/service (for the fingerprint scheme and
// the Store interface it implements — the interface lives in service so
// the dependency points downward), and internal/jobs (record decoding
// for verification; store likewise implements jobs.Store). Consumed by
// cmd/locshortd, cmd/locshortctl and internal/cluster.
//
// The package is inside the checked-error scope policed by the
// internal/analysis lint suite (DESIGN.md §12): Close/Sync/Flush/Encode
// error results may not be silently discarded — check them or make the
// discard explicit with `_ =`. cmd/locshortlint enforces this in CI.
package store
