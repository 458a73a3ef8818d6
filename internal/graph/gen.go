package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph on n nodes: 0-1-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	g.Grow(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	g.Grow(n * (n - 1) / 2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	g := New(n)
	g.Grow(n - 1)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Wheel returns the wheel graph: center node 0 plus a rim cycle on nodes
// 1..n-1, every rim node connected to the center. This is the paper's
// Section 2 example of a diameter-2 graph with a part (the rim) of induced
// diameter Theta(n).
func Wheel(n int) *Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: wheel needs n >= 4, got %d", n))
	}
	g := New(n)
	g.Grow(2 * (n - 1))
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		g.AddEdge(v, next)
	}
	return g
}

// GridIndex converts (row, col) coordinates to the node ID used by Grid and
// Torus with the given number of columns.
func GridIndex(row, col, cols int) int { return row*cols + col }

// Grid returns the rows x cols grid graph (planar, minor density < 3).
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	g.Grow(2*rows*cols - rows - cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := GridIndex(r, c, cols)
			if c+1 < cols {
				g.AddEdge(v, GridIndex(r, c+1, cols))
			}
			if r+1 < rows {
				g.AddEdge(v, GridIndex(r+1, c, cols))
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus grid (genus 1): a grid with wraparound
// edges in both dimensions. Requires rows, cols >= 3 so that wraparound does
// not create parallel edges.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs rows, cols >= 3, got %dx%d", rows, cols))
	}
	g := New(rows * cols)
	g.Grow(2 * rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := GridIndex(r, c, cols)
			g.AddEdge(v, GridIndex(r, (c+1)%cols, cols))
			g.AddEdge(v, GridIndex((r+1)%rows, c, cols))
		}
	}
	return g
}

// TorusChain returns the connected sum of count tori: count disjoint
// side x side torus grids joined in a path by single bridge edges. Its
// (orientable) genus is at most count — bridges do not raise genus — so it
// is a graph family with genus parameter g = count for the Corollary 1.4
// sweep, with delta(G) = O(sqrt(count)) by Lemma 3.3.
func TorusChain(count, side int) *Graph {
	if count < 1 || side < 3 {
		panic(fmt.Sprintf("graph: torus chain needs count >= 1 and side >= 3, got %d, %d", count, side))
	}
	single := side * side
	g := New(count * single)
	g.Grow(count*(2*single+1) - 1)
	for t := 0; t < count; t++ {
		base := t * single
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := base + GridIndex(r, c, side)
				g.AddEdge(v, base+GridIndex(r, (c+1)%side, side))
				g.AddEdge(v, base+GridIndex((r+1)%side, c, side))
			}
		}
		if t > 0 {
			// Bridge from the previous torus's last node to this one's first.
			g.AddEdge(base-1, base)
		}
	}
	return g
}

// KTree returns a random k-tree on n nodes: the maximal graphs of treewidth
// k, so the minor density is at most k (Lemma 3.3). Construction starts from
// K_{k+1}; every further node is attached to all members of a uniformly
// random existing k-clique. Requires n >= k+1.
func KTree(n, k int, rng *rand.Rand) *Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graph: k-tree needs n >= k+1 >= 2, got n=%d k=%d", n, k))
	}
	g := New(n)
	g.Grow(k*(k+1)/2 + (n-k-1)*k)
	// Seed clique K_{k+1}.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			g.AddEdge(u, v)
		}
	}
	// cliques holds every k-clique made so far, in the order it was made,
	// k nodes each: the seed clique's k+1 faces, then k per further node.
	cliques := make([]int, 0, k*(k+1+(n-k-1)*k))
	for skip := 0; skip <= k; skip++ {
		for v := 0; v <= k; v++ {
			if v != skip {
				cliques = append(cliques, v)
			}
		}
	}
	for v := k + 1; v < n; v++ {
		i := rng.Intn(len(cliques)/k) * k
		base := cliques[i : i+k : i+k]
		for _, u := range base {
			g.AddEdge(v, u)
		}
		for skip := 0; skip < k; skip++ {
			cliques = append(cliques, v)
			for i, u := range base {
				if i != skip {
					cliques = append(cliques, u)
				}
			}
		}
	}
	return g
}

// RandomConnected returns a random connected graph with n nodes and m >= n-1
// edges: a uniform random recursive spanning tree plus m-(n-1) additional
// random non-parallel edges. Panics if m exceeds the simple-graph maximum.
func RandomConnected(n, m int, rng *rand.Rand) *Graph {
	if n < 1 || m < n-1 || m > n*(n-1)/2 {
		panic(fmt.Sprintf("graph: invalid random graph parameters n=%d m=%d", n, m))
	}
	g := New(n)
	g.Grow(m)
	have := make(map[[2]int]bool, m)
	addIfNew := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if u == v || have[key] {
			return false
		}
		have[key] = true
		g.AddEdge(u, v)
		return true
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addIfNew(perm[i], perm[rng.Intn(i)])
	}
	for g.NumEdges() < m {
		addIfNew(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// Caterpillar returns a path of length spineLen with legs leaves attached to
// every spine node; a tree family with long induced paths, used as a
// degenerate-partition stress test.
func Caterpillar(spineLen, legs int) *Graph {
	n := spineLen * (legs + 1)
	g := New(n)
	g.Grow(n - 1)
	for s := 0; s < spineLen; s++ {
		v := s * (legs + 1)
		if s+1 < spineLen {
			g.AddEdge(v, (s+1)*(legs+1))
		}
		for l := 1; l <= legs; l++ {
			g.AddEdge(v, v+l)
		}
	}
	return g
}

// RandomizeWeights assigns independent uniform weights in (0, 1) to every
// edge. Distinct with probability 1, making the MST unique for testing.
func RandomizeWeights(g *Graph, rng *rand.Rand) {
	for id := range g.edges {
		g.edges[id].W = rng.Float64()
	}
	g.canonical.Store(canonicalUnknown)
}
