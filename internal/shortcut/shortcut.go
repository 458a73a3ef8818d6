package shortcut

import (
	"fmt"
	"slices"
	"sync"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// Shortcut is a collection of subgraphs H_1..H_k, one per part, stored as
// edge-ID sets. A nil Tree indicates a non-tree-restricted shortcut (only
// the baselines produce those).
type Shortcut struct {
	G     *graph.Graph
	Parts *partition.Partition
	// Tree is the rooted tree the shortcut is restricted to, or nil.
	Tree *tree.Rooted
	// H[i] lists the edge IDs of H_i, without duplicates.
	H [][]int
	// Covered[i] reports whether part i was given a shortcut. Uncovered
	// parts (possible only for partial shortcuts) have H[i] == nil.
	Covered []bool
}

// NewEmpty returns the empty shortcut (H_i = ∅ for every part): every part
// is covered, dilation equals the worst induced part diameter.
func NewEmpty(g *graph.Graph, p *partition.Partition) *Shortcut {
	s := &Shortcut{
		G:       g,
		Parts:   p,
		H:       make([][]int, p.NumParts()),
		Covered: make([]bool, p.NumParts()),
	}
	for i := range s.Covered {
		s.Covered[i] = true
		s.H[i] = []int{}
	}
	return s
}

// CoveredCount returns the number of covered parts.
func (s *Shortcut) CoveredCount() int {
	n := 0
	for _, c := range s.Covered {
		if c {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: edge IDs in range, no edge listed
// twice by one part and, for tree-restricted shortcuts, every edge on the
// tree. The checks run over one dense per-edge array, so the allocations
// do not grow with the number of parts or edges listed.
func (s *Shortcut) Validate() error {
	if len(s.H) != s.Parts.NumParts() || len(s.Covered) != s.Parts.NumParts() {
		return fmt.Errorf("shortcut: %d H-sets and %d coverage flags for %d parts",
			len(s.H), len(s.Covered), s.Parts.NumParts())
	}
	m := s.G.NumEdges()
	type edgeMark struct {
		part   int  // 1 + the last part that listed the edge, 0 if none
		onTree bool // a parent edge of s.Tree
	}
	marks := make([]edgeMark, m)
	if s.Tree != nil {
		for v, e := range s.Tree.ParentEdge {
			if s.Tree.Parent[v] >= 0 && e >= 0 && e < m {
				marks[e].onTree = true
			}
		}
	}
	for i, h := range s.H {
		for _, id := range h {
			if id < 0 || id >= m {
				return fmt.Errorf("shortcut: part %d uses out-of-range edge %d", i, id)
			}
			if marks[id].part == i+1 {
				return fmt.Errorf("shortcut: part %d lists edge %d twice", i, id)
			}
			marks[id].part = i + 1
			if s.Tree != nil && !marks[id].onTree {
				return fmt.Errorf("shortcut: part %d uses non-tree edge %d in a tree-restricted shortcut", i, id)
			}
		}
	}
	return nil
}

// Quality summarizes the measured quality of a shortcut.
type Quality struct {
	// Congestion is the maximum, over edges, of the number of parts whose
	// H_i contains the edge (property II of Definition 2.2).
	Congestion int
	// Dilation is the maximum, over covered parts, of the diameter of
	// G[P_i]+H_i (property I). When DilationExact is false, Dilation is the
	// double-sweep upper bound (at most twice the true value).
	Dilation      int
	DilationExact bool
	// MaxBlocks is the maximum, over covered parts, of the number of
	// connected components of (P_i ∪ V(H_i), H_i) (Definition 2.3).
	MaxBlocks int
	// CoveredParts is the number of parts given a shortcut.
	CoveredParts int
}

// Value returns the shortcut quality Q = congestion + dilation.
func (q Quality) Value() int { return q.Congestion + q.Dilation }

// exactDiameterNodeLimit bounds the augmented-subgraph size for which
// Measure computes exact diameters; larger subgraphs use the double-sweep
// upper bound.
const exactDiameterNodeLimit = 1500

// Measure computes the quality of a shortcut. Dilation of very large
// augmented subgraphs is upper-bounded by double sweep rather than computed
// exactly; DilationExact reports which was used.
//
// The augmented graph of part i is exactly the paper's G[P_i] + H_i: the
// edges induced on P_i plus the edges of H_i — G-edges between non-part
// nodes of V(H_i) that are not in H_i do not count.
//
// Measurement runs on a pooled measurer: a dense per-edge load counter, and
// per part a flat CSR of the augmented subgraph whose exact diameter comes
// from the bounding search of (*graph.CSR).Diameter. Once the pool holds a
// measurer sized for the graph, a call allocates nothing.
func Measure(s *Shortcut) Quality {
	m := measurers.Get().(*measurer)
	m.reserve(s.G)
	q := Quality{DilationExact: true, CoveredParts: s.CoveredCount()}
	// Congestion, over a dense per-edge counter.
	load := m.load[:s.G.NumEdges()]
	clear(load)
	for i, h := range s.H {
		if !s.Covered[i] {
			continue
		}
		for _, id := range h {
			load[id]++
			if int(load[id]) > q.Congestion {
				q.Congestion = int(load[id])
			}
		}
	}
	// Dilation and blocks per covered part.
	for i := range s.H {
		if !s.Covered[i] {
			continue
		}
		m.buildAugmented(s, i)
		var d int
		if len(m.nodes) <= exactDiameterNodeLimit {
			d = m.csr.Diameter(&m.diam)
		} else {
			d = 2 * m.csr.DoubleSweep(&m.diam) // -2 when disconnected
			q.DilationExact = false
		}
		if d < 0 {
			// Augmented subgraph disconnected: dilation is unbounded;
			// record a sentinel larger than any graph distance.
			d = s.G.NumNodes() + 1
		}
		if d > q.Dilation {
			q.Dilation = d
		}
		if b := m.blocks(); b > q.MaxBlocks {
			q.MaxBlocks = b
		}
	}
	// A measurer goes back to the pool only from a completed call: a panic
	// part-way through may leave idx entries that m.nodes does not list.
	measurers.Put(m)
	return q
}

// PartDilation returns the diameter of G[P_i]+H_i for a single part (exact,
// regardless of size), or -1 if the augmented subgraph is disconnected.
func PartDilation(s *Shortcut, i int) int {
	m := measurers.Get().(*measurer)
	m.reserve(s.G)
	m.buildAugmented(s, i)
	d := m.csr.Diameter(&m.diam)
	measurers.Put(m)
	return d
}

// measurers pools Measure's scratch; its arrays only grow, so steady-state
// measurement of same-sized graphs does not touch the allocator.
var measurers = sync.Pool{New: func() any { return new(measurer) }}

// measurer is the scratch of Measure and PartDilation: a
// global-node-to-local-index table (cleared by walking the previous node
// list, so clearing is O(sub)), the node list itself, the augmented edge
// list and its CSR, diameter scratch, and a union-find array.
type measurer struct {
	load  []int32 // per-edge count of covered parts whose H_i holds it
	idx   []int32 // global node -> local index + 1; 0 = absent
	nodes []int
	// eu/ev list the augmented edges as local endpoint pairs in insertion
	// order: induced part edges, then from hStart on the edges of H_i.
	eu, ev []int32
	hStart int
	csr    graph.CSR // EdgeID stays nil: only distances are measured
	diam   graph.DiameterScratch
	dsu    []int32
}

// reserve sizes the scratch for g (n nodes, e edges) in one step: the node
// arrays to n, the edge arrays to e+n, which holds every tree-restricted
// augmented subgraph (at most e induced edges plus n-1 tree edges). A
// measurer fresh from the pool then allocates a fixed dozen arrays instead
// of regrowing them each time a larger part comes along.
func (m *measurer) reserve(g *graph.Graph) {
	n, e := g.NumNodes(), g.NumEdges()
	if len(m.idx) < n {
		// m.nodes lists the set entries of m.idx, so both are replaced.
		m.idx = make([]int32, n)
		m.nodes = make([]int, 0, n)
		m.csr.Offsets = make([]int32, 0, n+1)
		m.dsu = make([]int32, 0, n)
		m.diam.Reserve(n)
	}
	if cap(m.load) < e {
		m.load = make([]int32, e)
		m.eu = make([]int32, 0, e+n)
		m.ev = make([]int32, 0, e+n)
		m.csr.To = make([]int32, 0, 2*(e+n))
	}
}

// buildAugmented lays out G[P_i] + H_i in the measurer: m.nodes lists its
// nodes in increasing global ID (local node j is m.nodes[j]), m.eu/m.ev its
// edges, and m.csr its adjacency, each node's arcs in edge insertion order.
//
//locshort:hotpath
func (m *measurer) buildAugmented(s *Shortcut, i int) {
	for _, v := range m.nodes {
		m.idx[v] = 0 // clear the previous part's entries
	}
	idx, edges := m.idx, s.G.EdgeSlice()
	nodes := m.nodes[:0]
	for _, v := range s.Parts.Parts[i] {
		if idx[v] == 0 {
			idx[v] = 1
			nodes = append(nodes, v)
		}
	}
	for _, id := range s.H[i] {
		for _, v := range [2]int{edges[id].U, edges[id].V} {
			if idx[v] == 0 {
				idx[v] = 1
				nodes = append(nodes, v)
			}
		}
	}
	slices.Sort(nodes)
	for j, v := range nodes {
		idx[v] = int32(j) + 1
	}
	m.nodes = nodes

	eu, ev := m.eu[:0], m.ev[:0]
	g := s.G.CSR()
	for _, v := range s.Parts.Parts[i] {
		for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
			// to in P_i exactly when its part index matches; parts are
			// disjoint, so PartOf replaces the membership set.
			if to := int(g.To[a]); s.Parts.PartOf[to] == i && v < to {
				eu = append(eu, idx[v]-1)
				ev = append(ev, idx[to]-1)
			}
		}
	}
	m.hStart = len(eu)
	for _, id := range s.H[i] {
		eu = append(eu, idx[edges[id].U]-1)
		ev = append(ev, idx[edges[id].V]-1)
	}
	m.eu, m.ev = eu, ev

	// Counting pass, then a fill that advances off[u] as u's cursor: after
	// it off[u] is the end of u's arcs, so shifting by one restores starts.
	off := graph.ResizeInt32s(m.csr.Offsets, len(nodes)+1)
	clear(off)
	for j := range eu {
		off[eu[j]+1]++
		off[ev[j]+1]++
	}
	for u := 1; u < len(off); u++ {
		off[u] += off[u-1]
	}
	to := graph.ResizeInt32s(m.csr.To, 2*len(eu))
	for j := range eu {
		u, v := eu[j], ev[j]
		to[off[u]] = v
		off[u]++
		to[off[v]] = u
		off[v]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	m.csr.Offsets, m.csr.To = off, to
}

// blocks counts the connected components of (P_i ∪ V(H_i), H_i) over the
// H_i edges the preceding buildAugmented call laid out, with a
// path-halving union-find on local indices.
//
//locshort:hotpath
func (m *measurer) blocks() int {
	parent := graph.ResizeInt32s(m.dsu, len(m.nodes))
	m.dsu = parent
	for j := range parent {
		parent[j] = int32(j)
	}
	sets := len(parent)
	for j := m.hStart; j < len(m.eu); j++ {
		a, b := find(parent, m.eu[j]), find(parent, m.ev[j])
		if a != b {
			parent[a] = b
			sets--
		}
	}
	return sets
}

func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// EdgeLoads returns, for every edge with nonzero load, the number of covered
// parts whose H_i contains it.
func EdgeLoads(s *Shortcut) map[int]int {
	load := make(map[int]int)
	for i, h := range s.H {
		if !s.Covered[i] {
			continue
		}
		for _, id := range h {
			load[id]++
		}
	}
	return load
}
