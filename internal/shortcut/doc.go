// Package shortcut implements the paper's primary contribution:
// low-congestion shortcuts for graphs excluding dense minors.
//
// A shortcut (Definition 2.2) assigns to every part P_i of a partition a
// subgraph H_i of G such that the diameter of G[P_i]+H_i is small (dilation)
// while every edge appears in few H_i (congestion). This package provides
//
//   - the Shortcut type and quality measurement (congestion, dilation,
//     block number),
//   - the constructive proof of Theorem 3.1: tree-restricted
//     8δD-congestion 8δ-block partial shortcuts via the overcongested-edge
//     process,
//   - the Observation 2.7 loop turning partial shortcuts into full ones,
//   - the parameter-free doubling search over δ' of the Section 3.1 remark
//     (Build), on the flat-state Builder (DESIGN.md §5),
//   - the certifying variant of the Section 3.1 remark, which extracts a
//     dense bipartite minor whenever the construction fails, and
//   - the folklore D+sqrt(n) baseline shortcut for general graphs (§1.3).
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, internal/tree, and
// internal/minor. It is the cost center of the system: internal/dist runs
// the same harvest (AssembleFromCuts) after its simulated cut waves,
// internal/service caches Build results behind a singleflight, and
// internal/store persists them. The pre-Builder construction is preserved
// in the test file reference_test.go as the executable specification.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package shortcut
