// Package congest simulates the synchronous CONGEST model of distributed
// computing (Section 1.1 of the paper): an n-node network where, in every
// round, each node may send one O(log n)-bit message to each of its
// neighbors. Messages sent in round r are delivered at the start of round
// r+1.
//
// The simulator enforces the model exactly: one message per edge per
// direction per round, fixed-size payloads, and no access to global state —
// a node sees only its own ID, its incident edges, and incoming messages.
// Round execution is parallelized across nodes with a goroutine worker pool;
// delivery order is deterministic (sorted by sender), so protocols that are
// deterministic per node are deterministic end to end.
//
// # Role in the DAG
//
// Depends on internal/graph, and on internal/obs for its panic type: a
// Step that panics on a worker goroutine is recovered there and re-raised
// (obs.Repanic) on the goroutine running the round, so a caller's recover,
// such as the service engine worker's, still catches it. internal/dist
// runs every distributed protocol — BFS waves, the Theorem 1.5 cut waves,
// part-wise aggregation schedules — on this simulator, and its measured
// round counts are the "Measured" column of the DESIGN.md
// round-accounting discipline.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package congest
