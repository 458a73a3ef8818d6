// Package partition represents collections of node-disjoint, connected
// vertex parts — the input of the part-wise aggregation problem
// (Definition 2.1 of the paper) and of every shortcut construction.
//
// A partition need not cover all nodes: the paper's definitions only require
// the parts to be disjoint and to induce connected subgraphs. Constructors
// cover the partitions the experiments use (BFS-Voronoi blobs, grid rows,
// the Section 2 wheel rim, singletons for Borůvka) plus FromLabels /
// FromLabelsInto for label-array re-partitioning inside distributed
// algorithm phases, and FromCanonical, which rebuilds a partition from the
// label sequence of its canonical encoding (a stored partition record)
// into memory the caller owns.
// Every constructor checks part connectivity with one BFS per part that
// marks visits in PartOf itself, on pooled scratch.
//
// # Role in the DAG
//
// Depends only on internal/graph. Everything that builds or serves
// shortcuts (internal/shortcut, internal/dist, internal/service,
// internal/store) consumes partitions; internal/service additionally
// defines their canonical byte encoding (FingerprintPartition) for
// content addressing and persistence.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package partition
