package graph

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row view of the adjacency structure: all arcs
// packed into two parallel int32 slices with per-node offsets, so traversal
// code (BFS, subtree sweeps, measurement) iterates contiguous memory. It is
// the graph's only adjacency: a graph stores its edge list, and the CSR is
// derived from it. Each node's arcs are in edge-ID order, the order in
// which its edges were added, so every traversal visits neighbors in an
// order fixed by the edge list alone.
//
// A CSR is immutable once built. It is built lazily by (*Graph).CSR and
// memoized on the graph; adding an edge invalidates the memo.
type CSR struct {
	// Offsets has length NumNodes+1; node v's arcs occupy the index range
	// [Offsets[v], Offsets[v+1]) of To and EdgeID.
	Offsets []int32
	// To[i] is the neighbor node of arc i.
	To []int32
	// EdgeID[i] is the graph edge ID of arc i.
	EdgeID []int32
	// arcs[i] is arc i as Neighbors hands it out.
	arcs []Arc
}

// Degree returns the number of arcs of v.
func (c *CSR) Degree(v int) int { return int(c.Offsets[v+1] - c.Offsets[v]) }

// Neighbors returns v's arcs in edge-ID order. The slice is a window of the
// view, capped at its length so that an append copies instead of reaching
// the next node's arcs; it must not be modified.
func (c *CSR) Neighbors(v int) []Arc {
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	return c.arcs[lo:hi:hi]
}

// CSR returns the memoized compressed-sparse-row view of the graph,
// building it on first use (O(n+m)). The returned view is shared and must
// be treated as read-only; it stays valid until the next AddEdge /
// AddWeightedEdge, which invalidates the memo. Like the graph itself, CSR
// must not be raced with concurrent mutation, but concurrent readers of a
// quiescent graph may all call it safely: first callers that race may each
// build a view, and all of them return the one memoized first.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g.n, g.edges)
	if !g.csr.CompareAndSwap(nil, c) {
		c = g.csr.Load()
	}
	return c
}

// buildCSR derives the view from the edge list in one counting pass: the
// degrees, their prefix sums, then every edge's two arcs placed in edge-ID
// order.
func buildCSR(n int, edges []Edge) *CSR {
	arcs := 2 * len(edges)
	if int64(n) >= math.MaxInt32 || int64(arcs) >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: CSR limited to int32 indices (n=%d, arcs=%d)", n, arcs))
	}
	c := &CSR{
		Offsets: make([]int32, n+1),
		To:      make([]int32, arcs),
		EdgeID:  make([]int32, arcs),
		arcs:    make([]Arc, arcs),
	}
	// off[v+1] counts v's arcs, then holds where they start, then, as the
	// placement advances it past each of them, where v+1's start.
	off := c.Offsets
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	start := int32(0)
	for v := 1; v <= n; v++ {
		start, off[v] = start+off[v], start
	}
	for id, e := range edges {
		i := off[e.U+1]
		off[e.U+1]++
		c.To[i], c.EdgeID[i], c.arcs[i] = int32(e.V), int32(id), Arc{To: e.V, Edge: id}
		i = off[e.V+1]
		off[e.V+1]++
		c.To[i], c.EdgeID[i], c.arcs[i] = int32(e.U), int32(id), Arc{To: e.U, Edge: id}
	}
	return c
}
