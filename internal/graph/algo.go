package graph

// BFSResult holds the outcome of a breadth-first search.
type BFSResult struct {
	// Dist[v] is the hop distance from the source set, or -1 if unreachable.
	Dist []int
	// Parent[v] is the BFS-tree parent of v, or -1 for sources/unreachable.
	Parent []int
	// ParentEdge[v] is the edge ID connecting v to Parent[v], or -1.
	ParentEdge []int
	// Order lists reached nodes in nondecreasing distance.
	Order []int
}

// BFS runs a breadth-first search from src.
func BFS(g *Graph, src int) *BFSResult { return MultiBFS(g, []int{src}) }

// MultiBFS runs a breadth-first search from a set of sources simultaneously.
func MultiBFS(g *Graph, sources []int) *BFSResult {
	return MultiBFSInto(new(BFSResult), g, sources)
}

// MultiBFSInto runs MultiBFS reusing r's slices, growing them as needed,
// and returns r. The traversal iterates the graph's packed CSR view, and
// the visit order (hence the BFS tree) is identical to Neighbors-order
// traversal. Callers that run many searches — eccentricity sweeps, root
// selection, diameter computation — reuse one BFSResult to stay off the
// allocator; the previous search's slices are overwritten, so the result
// must not still be referenced elsewhere.
func MultiBFSInto(r *BFSResult, g *Graph, sources []int) *BFSResult {
	n := g.NumNodes()
	r.Dist = ResizeInts(r.Dist, n)
	r.Parent = ResizeInts(r.Parent, n)
	r.ParentEdge = ResizeInts(r.ParentEdge, n)
	if cap(r.Order) < n {
		r.Order = make([]int, 0, n)
	}
	// The Order slice doubles as the BFS queue: nodes are appended when
	// discovered and scanned in append order, which is exactly the
	// nondecreasing-distance order the field promises.
	queue := r.Order[:0]
	for v := 0; v < n; v++ {
		r.Dist[v] = -1
		r.Parent[v] = -1
		r.ParentEdge[v] = -1
	}
	for _, s := range sources {
		if r.Dist[s] == -1 {
			r.Dist[s] = 0
			queue = append(queue, s)
		}
	}
	csr := g.CSR()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := r.Dist[v] + 1
		for i, end := csr.Offsets[v], csr.Offsets[v+1]; i < end; i++ {
			to := int(csr.To[i])
			if r.Dist[to] == -1 {
				r.Dist[to] = dv
				r.Parent[to] = v
				r.ParentEdge[to] = int(csr.EdgeID[i])
				queue = append(queue, to)
			}
		}
	}
	r.Order = queue
	return r
}

// ResizeInts returns s resliced to length n, reallocating only when the
// capacity is short — the grow-or-reslice helper shared by the
// slice-reusing constructors across packages (BFSResult reuse here,
// partition rebuilds, etc.). New or grown elements are not zeroed.
func ResizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ResizeInt32s is ResizeInts for the int32 index arrays of CSR-shaped
// scratch (the diameter routines, shortcut measurement).
func ResizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Eccentricity returns the maximum finite BFS distance from v and the
// farthest node attaining it. Unreachable nodes are ignored; an isolated
// node has eccentricity 0 with itself as the farthest node.
func Eccentricity(g *Graph, v int) (ecc, farthest int) {
	return EccentricityInto(new(BFSResult), g, v)
}

// EccentricityInto is Eccentricity reusing r's slices (see MultiBFSInto).
func EccentricityInto(r *BFSResult, g *Graph, v int) (ecc, farthest int) {
	MultiBFSInto(r, g, []int{v})
	ecc, farthest = 0, v
	for u, d := range r.Dist {
		if d > ecc {
			ecc, farthest = d, u
		}
	}
	return ecc, farthest
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph count as connected.
func Connected(g *Graph) bool {
	if g.NumNodes() <= 1 {
		return true
	}
	return len(BFS(g, 0).Order) == g.NumNodes()
}

// Components returns a component label per node (labels are dense, starting
// at 0) and the number of components.
func Components(g *Graph) (label []int, count int) {
	n := g.NumNodes()
	label = make([]int, n)
	for v := range label {
		label[v] = -1
	}
	for v := 0; v < n; v++ {
		if label[v] != -1 {
			continue
		}
		r := BFS(g, v)
		for _, u := range r.Order {
			label[u] = count
		}
		count++
	}
	return label, count
}

// Diameter returns the exact hop diameter of a connected graph. It returns
// ErrDisconnected for disconnected graphs. It runs the bounding search of
// (*CSR).Diameter on the graph's CSR view, which needs far fewer BFS runs
// than one per node.
func Diameter(g *Graph) (int, error) {
	d := g.CSR().Diameter(new(DiameterScratch))
	if d < 0 {
		return 0, ErrDisconnected
	}
	return d, nil
}

// InducedDiameter returns the exact diameter of the subgraph induced by the
// node set nodes, augmented with the extra edges extra (given as node pairs;
// both endpoints must be members of nodes). It returns -1 if the augmented
// subgraph is disconnected or nodes is empty. This is the measurement used
// for shortcut dilation: the diameter of G[P_i] + H_i.
func InducedDiameter(g *Graph, nodes []int, extra [][2]int) int {
	if len(nodes) == 0 {
		return -1
	}
	idx := make(map[int]int, len(nodes))
	for i, v := range nodes {
		idx[v] = i
	}
	sub := New(len(nodes))
	c := g.CSR()
	for i, v := range nodes {
		for _, a := range c.Neighbors(v) {
			j, ok := idx[a.To]
			if ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	for _, e := range extra {
		i, iok := idx[e[0]]
		j, jok := idx[e[1]]
		if !iok || !jok {
			return -1
		}
		if i != j {
			sub.AddEdge(i, j)
		}
	}
	d, err := Diameter(sub)
	if err != nil {
		return -1
	}
	return d
}
