// Package tree provides rooted-tree machinery for tree-restricted shortcuts
// (Definition 2.3 of the paper): parent/depth arrays derived from BFS trees,
// bottom-up and top-down traversal orders, subtree aggregation, and
// Euler-interval ancestor labels used by the distributed min-cut algorithm
// (the LCA telescope of Corollary 1.7's 1-respecting cut evaluation).
//
// # Role in the DAG
//
// Depends only on internal/graph. internal/shortcut restricts Theorem 3.1
// shortcuts to a Rooted tree, by default the graph's memoized BFS tree,
// which Shared wraps in a header of the caller's own; internal/dist
// materializes protocol-computed trees through FromParents and aggregates
// over them; internal/store persists a shortcut's restriction tree as
// parent-edge IDs and rebuilds it with FromParents on load.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package tree
