package minor

import (
	"fmt"
	"math"

	"locshort/internal/graph"
)

// Mapping witnesses that a graph H is a minor of a host graph G, in the
// branch-set form used by the paper: every H-node maps to a disjoint
// connected subset of G-nodes, and every H-edge is realized by at least one
// G-edge between the two branch sets.
type Mapping struct {
	// BranchSets[i] lists the G-nodes of H-node i.
	BranchSets [][]int
	// Edges lists the H-edges as pairs of H-node indices (no duplicates, no
	// self-loops, order within a pair irrelevant).
	Edges [][2]int
}

// NumNodes returns |V(H)|.
func (m *Mapping) NumNodes() int { return len(m.BranchSets) }

// NumEdges returns |E(H)|.
func (m *Mapping) NumEdges() int { return len(m.Edges) }

// Density returns |E(H)| / |V(H)|, the quantity delta(G) maximizes.
func (m *Mapping) Density() float64 {
	if len(m.BranchSets) == 0 {
		return 0
	}
	return float64(len(m.Edges)) / float64(len(m.BranchSets))
}

// Validate checks that the mapping witnesses a genuine minor of g:
// branch sets nonempty, disjoint and connected in g; edges distinct,
// non-loop, and realized by a g-edge between their branch sets.
func (m *Mapping) Validate(g *graph.Graph) error {
	ownerOf := make(map[int]int, g.NumNodes())
	for i, bs := range m.BranchSets {
		if len(bs) == 0 {
			return fmt.Errorf("minor: branch set %d is empty", i)
		}
		for _, v := range bs {
			if v < 0 || v >= g.NumNodes() {
				return fmt.Errorf("minor: branch set %d contains out-of-range node %d", i, v)
			}
			if prev, dup := ownerOf[v]; dup {
				return fmt.Errorf("minor: node %d in branch sets %d and %d", v, prev, i)
			}
			ownerOf[v] = i
		}
	}
	for i, bs := range m.BranchSets {
		if !connectedIn(g, bs, ownerOf, i) {
			return fmt.Errorf("minor: branch set %d is not connected in G", i)
		}
	}
	seen := make(map[[2]int]bool, len(m.Edges))
	for _, e := range m.Edges {
		a, b := e[0], e[1]
		if a == b {
			return fmt.Errorf("minor: self-loop at minor node %d", a)
		}
		if a < 0 || b < 0 || a >= len(m.BranchSets) || b >= len(m.BranchSets) {
			return fmt.Errorf("minor: edge {%d,%d} references unknown minor node", a, b)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return fmt.Errorf("minor: duplicate edge {%d,%d}", a, b)
		}
		seen[[2]int{a, b}] = true
		if !branchSetsAdjacent(g, m.BranchSets[a], ownerOf, b) {
			return fmt.Errorf("minor: edge {%d,%d} not realized by any G-edge", a, b)
		}
	}
	return nil
}

func connectedIn(g *graph.Graph, bs []int, ownerOf map[int]int, owner int) bool {
	seen := map[int]bool{bs[0]: true}
	queue := []int{bs[0]}
	c := g.CSR()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range c.Neighbors(v) {
			if o, ok := ownerOf[a.To]; ok && o == owner && !seen[a.To] {
				seen[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	return len(seen) == len(bs)
}

func branchSetsAdjacent(g *graph.Graph, from []int, ownerOf map[int]int, to int) bool {
	c := g.CSR()
	for _, v := range from {
		for _, a := range c.Neighbors(v) {
			if o, ok := ownerOf[a.To]; ok && o == to {
				return true
			}
		}
	}
	return false
}

// PlanarDensityBound is the Euler-formula density bound for planar graphs
// (and hence all their minors): fewer than 3 edges per node.
const PlanarDensityBound = 3.0

// GenusDensityBound returns the Lemma 3.3 bound on delta(G) for graphs of
// (orientable, non-orientable, or Euler) genus at most g: a genus-g graph on
// s nodes has at most 3s - 6 + 6g edges, so a density-d minor satisfies
// d <= 3 + 6g/d, i.e. d <= (3 + sqrt(9 + 24g)) / 2 = O(sqrt(g)).
func GenusDensityBound(g int) float64 {
	if g < 0 {
		panic(fmt.Sprintf("minor: negative genus %d", g))
	}
	return (3 + math.Sqrt(9+24*float64(g))) / 2
}

// TreewidthDensityBound returns the Lemma 3.3 bound on delta(G) for graphs
// of treewidth (or pathwidth) at most k: such graphs and all their minors
// have fewer than k*n edges, so delta(G) <= k.
func TreewidthDensityBound(k int) float64 { return float64(k) }

// CompleteDensity returns delta(K_n) = (n-1)/2: the densest minor of a
// complete graph is the graph itself.
func CompleteDensity(n int) float64 { return float64(n-1) / 2 }
