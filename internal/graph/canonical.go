package graph

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// compareEdges is the canonical edge order: by (U, V, W) on edges
// normalized to U < V. Weights compare by cmp.Compare, so +0 and −0 tie.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	if c := cmp.Compare(a.V, b.V); c != 0 {
		return c
	}
	return cmp.Compare(a.W, b.W)
}

// IsCanonical reports whether g is in canonical form: every edge has
// U < V and no −0 weight, and the edge list is nondecreasing in (U, V, W).
// That is the order store payloads hold edges in, so a canonical graph's
// edge IDs are its canonical edge indexes. The graph memoizes the answer
// next to its CSR view and BFS tree: the first call scans the edges once,
// allocating nothing, and later calls read the memo until AddEdge,
// AddWeightedEdge, SetWeight or RandomizeWeights drops it.
func IsCanonical(g *Graph) bool {
	switch g.canonical.Load() {
	case canonicalYes:
		return true
	case canonicalNo:
		return false
	}
	ok := scanCanonical(g)
	state := uint32(canonicalNo)
	if ok {
		state = canonicalYes
	}
	g.canonical.Store(state)
	return ok
}

// scanCanonical is IsCanonical's scan of the edge list.
func scanCanonical(g *Graph) bool {
	for i, e := range g.edges {
		if e.U >= e.V || (e.W == 0 && math.Signbit(e.W)) {
			return false
		}
		if i > 0 && compareEdges(g.edges[i-1], e) > 0 {
			return false
		}
	}
	return true
}

// Canonical returns g in canonical form: g itself when IsCanonical(g),
// else a new graph whose edges are g's, normalized to U < V with −0
// weights stored as +0, in canonical order. Node IDs do not change, and
// both graphs have the same AppendCanonical encoding.
func Canonical(g *Graph) *Graph {
	if IsCanonical(g) {
		return g
	}
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.W == 0 {
			e.W = 0 // −0 becomes +0
		}
		edges[i] = e
	}
	slices.SortStableFunc(edges, compareEdges)
	c := New(g.n)
	for _, e := range edges {
		c.AddWeightedEdge(e.U, e.V, e.W)
	}
	return c
}

// AppendCanonical appends a canonical binary encoding of the graph to b and
// returns the extended buffer: the node count, the edge count, then the
// edges of Canonical(g) in edge-ID order. Two graphs produce identical
// encodings if and only if they have the same node count and the same
// multiset of weighted edges, with +0 and −0 the same weight, so neither
// the orientation nor the insertion order of edges affects the encoding.
func (g *Graph) AppendCanonical(b []byte) []byte {
	edges := Canonical(g).edges
	b = binary.BigEndian.AppendUint64(b, uint64(g.n))
	b = binary.BigEndian.AppendUint64(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.BigEndian.AppendUint64(b, uint64(e.U))
		b = binary.BigEndian.AppendUint64(b, uint64(e.V))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.W))
	}
	return b
}
