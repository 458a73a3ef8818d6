// Package graph provides the undirected-graph substrate used throughout the
// repository: a compact adjacency representation with stable edge IDs,
// breadth-first search, diameter computation, disjoint-set union, Kruskal
// minimum spanning trees, Stoer-Wagner minimum cuts, and generators for every
// graph family evaluated in the paper, including the Lemma 3.2 lower-bound
// topology.
//
// Node IDs are dense integers in [0, NumNodes). Edge IDs are dense integers
// in [0, NumEdges) and are stable across the lifetime of the graph; they are
// the unit of congestion accounting for shortcuts.
//
// # Paper mapping
//
// The package implements no theorem by itself; it is the substrate the
// theorems are stated over. Specific pieces tied to the paper: the
// LowerBound generator realizes the Lemma 3.2 / Figure 3.2 hard instance,
// Kruskal and StoerWagner are the sequential references that validate the
// Corollary 1.6 / 1.7 distributed algorithms, and AppendCanonical defines
// the canonical byte encoding that internal/service fingerprints and
// internal/store persists.
//
// # Role in the DAG
//
// Root of the internal package DAG: every other internal package depends on
// graph and graph depends on nothing. Hot-path machinery (the memoized CSR
// packed-adjacency view, the MultiBFSInto slice-reuse constructor, and the
// CSR diameter routines with their reusable DiameterScratch) lives here so
// that the layers above can stay allocation-free; see DESIGN.md §5.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package graph
