package graph

import "sort"

// Kruskal computes a minimum spanning forest of g and returns the chosen
// edge IDs (in increasing weight order) and their total weight. Ties are
// broken by edge ID, so the result is deterministic; with distinct weights
// the MST is unique and this is the reference result used to validate the
// distributed algorithm.
func Kruskal(g *Graph) (edgeIDs []int, total float64) {
	ids := make([]int, g.NumEdges())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := g.Edge(ids[a]), g.Edge(ids[b])
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ids[a] < ids[b]
	})
	dsu := NewDSU(g.NumNodes())
	for _, id := range ids {
		e := g.Edge(id)
		if dsu.Union(e.U, e.V) {
			edgeIDs = append(edgeIDs, id)
			total += e.W
		}
	}
	return edgeIDs, total
}
