package graph

// Bridges returns the IDs of all bridge edges (edges whose removal
// disconnects their component) using an iterative DFS lowlink computation.
// Parallel edges are handled correctly: only the specific edge used to
// enter a node is skipped when computing its lowlink, so a doubled edge is
// never a bridge. Runs in O(n + m); the sequential reference for the
// distributed bridge finder.
func Bridges(g *Graph) []int {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for v := range disc {
		disc[v] = -1
	}
	var bridges []int
	timer := 0
	c := g.CSR()

	type frame struct {
		v, parentEdge, arcIdx int
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{v: start, parentEdge: -1}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := c.Neighbors(f.v)
			if f.arcIdx < len(adj) {
				a := adj[f.arcIdx]
				f.arcIdx++
				if a.Edge == f.parentEdge {
					continue
				}
				if disc[a.To] == -1 {
					disc[a.To] = timer
					low[a.To] = timer
					timer++
					stack = append(stack, frame{v: a.To, parentEdge: a.Edge})
					continue
				}
				if disc[a.To] < low[f.v] {
					low[f.v] = disc[a.To]
				}
				continue
			}
			// Post-order: fold into the parent.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[f.v] < low[p.v] {
				low[p.v] = low[f.v]
			}
			if low[f.v] > disc[p.v] {
				bridges = append(bridges, f.parentEdge)
			}
		}
	}
	return bridges
}
