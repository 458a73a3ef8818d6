package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Edge is an undirected edge between nodes U and V with weight W.
// Generators create edges with weight 1 unless stated otherwise.
type Edge struct {
	U, V int
	W    float64
}

// Arc is one direction of an edge as seen from a node's adjacency list.
type Arc struct {
	To   int // neighbor node
	Edge int // edge ID shared by both directions
}

// Graph is an undirected multigraph with stable edge IDs.
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Arc
	// csr memoizes the packed adjacency view; see (*Graph).CSR. It is
	// invalidated whenever an edge is added.
	csr atomic.Pointer[CSR]
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

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

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Arc { return g.adj[v] }

// Degree returns the number of incident edges of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

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
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: id})
	g.adj[v] = append(g.adj[v], Arc{To: u, Edge: id})
	g.csr.Store(nil) // topology changed: drop the memoized CSR view
	return id
}

// SetWeight updates the weight of edge id.
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

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
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v := range g.adj {
		c.adj[v] = make([]Arc, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	return c
}

// ErrDisconnected is returned by operations that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Validate checks internal consistency (adjacency matches the edge list) and
// returns an error describing the first inconsistency found.
func (g *Graph) Validate() error {
	deg := make([]int, g.n)
	for id, e := range g.edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edge %d endpoints {%d,%d} out of range", id, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", id, e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	for v := range g.adj {
		if len(g.adj[v]) != deg[v] {
			return fmt.Errorf("graph: node %d adjacency length %d, want %d", v, len(g.adj[v]), deg[v])
		}
		for _, a := range g.adj[v] {
			if a.Edge < 0 || a.Edge >= len(g.edges) {
				return fmt.Errorf("graph: node %d references unknown edge %d", v, a.Edge)
			}
			e := g.edges[a.Edge]
			if (e.U != v || e.V != a.To) && (e.V != v || e.U != a.To) {
				return fmt.Errorf("graph: node %d arc to %d disagrees with edge %d = {%d,%d}",
					v, a.To, a.Edge, e.U, e.V)
			}
		}
	}
	return nil
}
