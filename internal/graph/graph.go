package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Edge is an undirected edge between nodes U and V with weight W.
// Generators create edges with weight 1 unless stated otherwise.
type Edge struct {
	U, V int
	W    float64
}

// Arc is one direction of an edge as seen from one of its endpoints, as
// Neighbors lists it.
type Arc struct {
	To   int // neighbor node
	Edge int // edge ID shared by both directions
}

// Graph is an undirected multigraph with stable edge IDs: a node count and
// an edge list. Its adjacency is derived from the edge list on first use
// (see (*Graph).CSR), so building a graph costs nothing per node.
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count.
type Graph struct {
	n     int
	edges []Edge
	// csr memoizes the packed adjacency view and the arcs Neighbors
	// returns; see (*Graph).CSR. It is invalidated whenever an edge is
	// added.
	csr atomic.Pointer[CSR]
	// tree memoizes the BFS tree from the chosen root; see (*Graph).BFSTree.
	// treeMu serializes its first computation. It is invalidated whenever
	// an edge is added.
	tree   atomic.Pointer[BFSTree]
	treeMu sync.Mutex
	// canonical memoizes IsCanonical: canonicalUnknown until the first
	// check, then canonicalYes or canonicalNo. It is reset whenever an edge
	// is added or a weight changes.
	canonical atomic.Uint32
}

// The states of Graph.canonical.
const (
	canonicalUnknown = iota
	canonicalYes
	canonicalNo
)

// New returns an empty graph with n nodes and no edges. It allocates
// nothing per node.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n}
}

// Grow makes room for m more edges, so that the next m AddEdge or
// AddWeightedEdge calls do not reallocate the edge list. A negative m
// grows nothing.
func (g *Graph) Grow(m int) { g.edges = slices.Grow(g.edges, max(m, 0)) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeSlice returns the graph's edge list without copying. The returned
// slice is owned by the graph and must not be modified; it stays valid
// until the next AddEdge/AddWeightedEdge. Hot loops should prefer this
// over Edges, which copies on every call.
func (g *Graph) EdgeSlice() []Edge { return g.edges }

// Neighbors returns v's arcs, one per incident edge, in edge-ID order:
// (*CSR).Neighbors on the graph's CSR view, built on first use. The slice
// is owned by the graph and must not be modified. A loop over many nodes
// should fetch g.CSR() once and read its Neighbors instead.
func (g *Graph) Neighbors(v int) []Arc { return g.CSR().Neighbors(v) }

// Degree returns the number of incident edges of v, from the CSR view.
func (g *Graph) Degree(v int) int { return g.CSR().Degree(v) }

// AddEdge adds an undirected unit-weight edge {u, v} and returns its edge ID.
// Self-loops are rejected; parallel edges are permitted.
func (g *Graph) AddEdge(u, v int) int { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge adds an undirected edge {u, v} with weight w and returns
// its edge ID.
func (g *Graph) AddWeightedEdge(u, v int, w float64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	// Topology changed: drop the memoized CSR view, BFS tree and canonical
	// check. A graph being built has none of them, so only a set memo
	// takes a store.
	if g.csr.Load() != nil {
		g.csr.Store(nil)
	}
	if g.tree.Load() != nil {
		g.tree.Store(nil)
	}
	if g.canonical.Load() != canonicalUnknown {
		g.canonical.Store(canonicalUnknown)
	}
	return id
}

// SetWeight updates the weight of edge id, which drops the memoized
// canonical check: a weight can move an edge out of canonical order.
func (g *Graph) SetWeight(id int, w float64) {
	g.edges[id].W = w
	g.canonical.Store(canonicalUnknown)
}

// Other returns the endpoint of edge id that is not v.
func (g *Graph) Other(id, v int) int {
	e := g.edges[id]
	if e.U == v {
		return e.V
	}
	if e.V == v {
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", v, id))
}

// HasEdge reports whether some edge connects u and v.
func (g *Graph) HasEdge(u, v int) bool {
	c := g.CSR()
	if c.Degree(u) > c.Degree(v) {
		u, v = v, u
	}
	for _, to := range c.To[c.Offsets[u]:c.Offsets[u+1]] {
		if int(to) == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, edges: slices.Clone(g.edges)}
}

// ErrDisconnected is returned by operations that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Validate checks that every edge has endpoints in range, is not a
// self-loop and has no NaN weight, and returns an error describing the
// first problem found. The adjacency is derived from the edge list, so
// there is nothing else to cross-check.
func (g *Graph) Validate() error {
	for id, e := range g.edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edge %d endpoints {%d,%d} out of range", id, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", id, e.U)
		}
		if math.IsNaN(e.W) {
			return fmt.Errorf("graph: edge %d has NaN weight", id)
		}
	}
	return nil
}
