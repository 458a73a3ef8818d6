package graph

// BFSTree is a graph's BFS tree from the root ChooseRoot picks: that root
// and the BFSResult of one search from it. The graph memoizes it (see
// (*Graph).BFSTree), so its slices are shared by every caller.
type BFSTree struct {
	Root int
	BFSResult
}

// BFSTree returns the graph's BFS tree from its chosen root. The first call
// runs the root search (chooseRoot) and one BFS from the root, and
// memoizes the result next to the CSR view; every later call returns the
// same value. Its slices are therefore shared by every caller and must be
// treated as read-only; they stay valid until the next AddEdge /
// AddWeightedEdge, which drops the memo. Concurrent first callers on a
// quiescent graph wait for one search instead of each running their own.
// On a disconnected graph the tree spans only the root's component.
func (g *Graph) BFSTree() *BFSTree {
	if t := g.tree.Load(); t != nil {
		return t
	}
	g.treeMu.Lock()
	defer g.treeMu.Unlock()
	if t := g.tree.Load(); t != nil {
		return t
	}
	t := new(BFSTree)
	if g.n > 0 {
		t.Root = chooseRoot(g)
		MultiBFSInto(&t.BFSResult, g, []int{t.Root})
	}
	g.tree.Store(t)
	return t
}

// ChooseRoot returns the root of g's memoized BFS tree: a node near the
// graph center (see chooseRoot), or 0 for the empty graph. The first call
// on a graph pays the search; later calls read the memo.
func ChooseRoot(g *Graph) int { return g.BFSTree().Root }

// chooseRoot picks a BFS root near the graph center: it finds an
// approximately longest shortest path by double sweep and returns the
// minimum-eccentricity node on it. (Taking the path midpoint instead is a
// known trap: the BFS path between two grid corners can run along the
// boundary, whose midpoint is another corner with eccentricity equal to the
// diameter.) Cost is O(D*m) preprocessing; the resulting BFS tree has depth
// close to the radius. All sweeps share one BFS scratch, so the search
// allocates O(n) total regardless of how many candidates it examines.
func chooseRoot(g *Graph) int {
	if g.NumNodes() == 0 {
		return 0
	}
	var ecc BFSResult // scratch for eccentricity probes
	_, a := EccentricityInto(&ecc, g, 0)
	r := BFS(g, a) // held across the probes below: needs its own result
	far, dist := a, 0
	for v, d := range r.Dist {
		if d > dist {
			far, dist = v, d
		}
	}
	best, bestEcc := far, -1
	for v := far; v != -1; v = r.Parent[v] {
		e, _ := EccentricityInto(&ecc, g, v)
		if bestEcc == -1 || e < bestEcc {
			best, bestEcc = v, e
		}
	}
	// Greedy descent on eccentricity: the path argmin can still sit on the
	// boundary (e.g. an edge-middle of a grid); stepping to any neighbor
	// that strictly lowers the eccentricity converges to a near-central
	// node in at most diameter steps. Each step examines at most
	// maxDescentNeighbors neighbors so that high-degree hubs (a wheel
	// center has n-1 neighbors, each check a full BFS) stay cheap.
	const maxDescentNeighbors = 32
	c := g.CSR()
	for improved := true; improved; {
		improved = false
		for i, a := range c.Neighbors(best) {
			if i >= maxDescentNeighbors {
				break
			}
			e, _ := EccentricityInto(&ecc, g, a.To)
			if e < bestEcc {
				best, bestEcc = a.To, e
				improved = true
				break
			}
		}
	}
	return best
}
