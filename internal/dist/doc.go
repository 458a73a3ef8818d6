// Package dist implements the paper's distributed results on the CONGEST
// simulator of internal/congest:
//
//   - Construct, the Theorem 1.5 distributed shortcut construction: a
//     distributed BFS tree, per-iteration overcongested-edge cut waves
//     (exact capped ID sets or min-hash sampling), the Observation 2.7
//     halving loop, and the parameter-free doubling search over δ' —
//     mirroring the centralized internal/shortcut.Build.
//   - Part-wise aggregation (Definition 2.1): NewPARouting installs
//     per-part routing trees on a shortcut; PartwiseAggregate runs the
//     convergecast/broadcast schedule with randomized contention
//     resolution, the O(congestion + dilation·log n) random-delay schedule
//     of [LMR94].
//   - MST (Corollary 1.6): Borůvka phases over part-wise aggregation, with
//     the shortcut per phase supplied by a pluggable provider (simulated
//     distributed construction, charged centralized construction, or the
//     D+sqrt(n) baseline).
//   - MinCut (Corollary 1.7): tree packing of random-weight MSTs with
//     1-respecting cut evaluation (OneRespectingCuts).
//   - Applications of Section 1.2: sub-graph connectivity
//     (SubgraphComponents) and bridge finding (Bridges).
//
// # Round accounting
//
// Every entry point reports a Rounds breakdown:
//
//   - Measured: rounds actually executed on the CONGEST simulator
//     (BFS waves, cut waves, aggregation schedules).
//   - Sync: harness phase barriers, charged at tree depth + 1 each — the
//     cost of the "everyone has finished the phase" convergecast the
//     harness performs implicitly between protocol phases.
//   - Charged: analytically charged rounds for steps the harness executes
//     centrally, at the budget the paper assigns them (e.g. the
//     Lemma 2.8 [HHW18] block-verification budget b(2D+1) + c per
//     iteration, or the Õ(Q) aggregation budget of a charged provider).
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, internal/tree,
// internal/shortcut, and internal/congest. internal/service runs MST,
// MinCut, and aggregation jobs through this package against cached
// shortcuts; internal/bench's E3–E13 experiments measure it.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12): no map iteration, no
// wall-clock reads, no global math/rand — identical inputs must produce
// identical bytes. Audited exceptions carry //locshort:nondeterministic-ok
// with a reason; cmd/locshortlint enforces the rest in CI.
package dist
