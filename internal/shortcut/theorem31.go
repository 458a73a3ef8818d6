package shortcut

import (
	"fmt"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// Partial is the outcome of one run of the Theorem 3.1 overcongested-edge
// process: a tree-restricted partial shortcut for the parts whose degree in
// the bipartite graph B stayed within the block budget, plus the data needed
// to extract a dense-minor certificate when too many parts failed.
type Partial struct {
	// Shortcut covers the parts with deg_B <= block budget.
	Shortcut *Shortcut
	// Overcongested lists the cut tree edges (the set O), as edge IDs.
	Overcongested []int
	// IE maps every overcongested edge ID to the parts I_e that intersected
	// the T\O subtree below it, paired with a representative node per part
	// (a member of the part reachable from v_e through T\O).
	IE map[int][]PartRep
	// DegB[i] is part i's degree in the bipartite graph B.
	DegB []int
}

// PartRep names a part and its representative node below an overcongested
// edge (the r_{e,P_i} of the paper's proof).
type PartRep struct {
	Part int
	Rep  int
}

// BuildPartial runs the constructive proof of Theorem 3.1 on graph g with
// rooted spanning tree t and the given parts, using congestion threshold c
// (a tree edge is overcongested when >= c parts intersect the subtree
// hanging below it in T\O) and block budget b (parts with more than b
// overcongested edges above them stay uncovered).
//
// With c = 8*delta*D and b = 8*delta, Theorem 3.1 guarantees that at least
// half the parts are covered on any graph with minor density delta and tree
// depth D. active restricts the construction to a subset of parts (nil
// means all); inactive parts neither count toward congestion nor receive
// shortcuts — this is what the Observation 2.7 loop passes on later
// iterations.
//
// The bottom-up sweep accumulates, per node, the set of active parts
// intersecting the T\O subtree below it, merged small-into-large on flat
// pooled tables (see Builder). Representatives are kept at minimal depth:
// the shallowest part node in the subtree. This matters for certificate
// extraction — the paper's independence argument (the "potentially
// present" probability of an edge (e, P_i) is independent of P_i being
// sampled) requires the tree path from v_e to the representative to
// contain no other P_i node, which holds exactly for a minimal-depth
// representative.
func BuildPartial(g *graph.Graph, t *tree.Rooted, p *partition.Partition, c, b int, active []bool) (*Partial, error) {
	if c < 1 {
		return nil, fmt.Errorf("shortcut: congestion threshold %d < 1", c)
	}
	if b < 0 {
		return nil, fmt.Errorf("shortcut: negative block budget %d", b)
	}
	if t.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("shortcut: tree has %d nodes, graph has %d", t.NumNodes(), g.NumNodes())
	}
	ls := statePool.Get().(*levelState)
	defer statePool.Put(ls)
	ls.prepare(g.NumNodes())

	pr := &Partial{IE: make(map[int][]PartRep), DegB: make([]int, p.NumParts())}
	ls.sweep(t, p, c, active, pr)

	// Case (I): cover parts whose bipartite degree is within budget, giving
	// them every ancestor edge in the forest T\O.
	ls.beginLevel(p.NumParts())
	ls.assemble(t, p, active, b, false)
	pr.Shortcut = ls.finish(new(Shortcut), g, t, p)
	return pr, nil
}

// AssembleFromCuts performs Case (I) of the Theorem 3.1 proof given the
// overcongested-edge indicator (cutAbove[v] marks v's parent edge as cut):
// every active part touching at most b non-root components of T\O is
// covered with all its ancestor edges in the forest. It is shared by the
// centralized construction and the harvest step of the distributed one.
func AssembleFromCuts(g *graph.Graph, t *tree.Rooted, p *partition.Partition, cutAbove []bool, active []bool, b int) *Shortcut {
	if len(cutAbove) != g.NumNodes() {
		// A short slice would leave stale pooled scratch in the tail and
		// silently corrupt the harvest; fail as loudly as the pre-pool
		// code, which indexed the caller's slice directly.
		panic(fmt.Sprintf("shortcut: cutAbove has %d entries for %d nodes", len(cutAbove), g.NumNodes()))
	}
	ls := statePool.Get().(*levelState)
	defer statePool.Put(ls)
	ls.prepare(g.NumNodes())
	copy(ls.cutAbove, cutAbove)
	ls.beginLevel(p.NumParts())
	ls.assemble(t, p, active, b, false)
	return ls.finish(new(Shortcut), g, t, p)
}

// CutAbove reconstructs, for certificate extraction, whether each node's
// parent edge was cut.
func (pr *Partial) cutAboveNodes(t *tree.Rooted) []bool {
	cut := make([]bool, t.NumNodes())
	inO := make(map[int]bool, len(pr.Overcongested))
	for _, e := range pr.Overcongested {
		inO[e] = true
	}
	for v := 0; v < t.NumNodes(); v++ {
		if t.Parent[v] >= 0 && inO[t.ParentEdge[v]] {
			cut[v] = true
		}
	}
	return cut
}
