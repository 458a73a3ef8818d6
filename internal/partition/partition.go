package partition

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"locshort/internal/graph"
)

// Partition is a validated collection of node-disjoint connected parts.
type Partition struct {
	// Parts holds the node IDs of each part.
	Parts [][]int
	// PartOf maps a node to its part index, or -1 if uncovered.
	PartOf []int

	// Scratch for the slice-reusing constructors (FromLabelsInto): a dense
	// label-index table, a visited indicator, and a BFS queue for the flat
	// connectivity check.
	labelIdx []int
	seen     []bool
	queue    []int

	// canon memoizes a caller-computed canonical byte encoding of the
	// partition (see CanonMemo). FromLabelsInto invalidates it when it
	// rebuilds the receiver in place.
	canon atomic.Pointer[[]byte]
}

// CanonMemo returns the partition's cached canonical encoding, computing
// it with f on first use. The encoding format belongs to the caller (the
// service layer's content addressing); it lives here because a published
// partition is immutable, so the bytes are computed once instead of per
// request. f must be a pure function of Parts/PartOf; concurrent first
// calls may both run f (same bytes, either store wins). Treat the returned
// slice as read-only.
func (p *Partition) CanonMemo(f func() []byte) []byte {
	if b := p.canon.Load(); b != nil {
		return *b
	}
	b := f()
	p.canon.Store(&b)
	return b
}

// New validates that the given parts are node-disjoint, within range, and
// that each part induces a connected subgraph of g, and returns the
// partition. Empty parts are rejected. The parts are copied into one
// backing array, so the partition never aliases the caller's slices.
func New(g *graph.Graph, parts [][]int) (*Partition, error) {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	backing := make([]int, 0, total)
	own := make([][]int, len(parts))
	for i, part := range parts {
		start := len(backing)
		backing = append(backing, part...)
		// A full slice expression: appending to one part (as
		// FromLabelsInto does on reuse) reallocates instead of running
		// into the next part.
		own[i] = backing[start:len(backing):len(backing)]
	}
	return validated(g, own)
}

// validated builds the partition over parts, taking ownership of them:
// it fills PartOf, rejecting empty, out-of-range and overlapping parts,
// then checks that every part induces a connected subgraph of g, all on
// one seen/queue scratch that the returned partition does not keep.
func validated(g *graph.Graph, parts [][]int) (*Partition, error) {
	p := &Partition{Parts: parts, PartOf: make([]int, g.NumNodes())}
	for v := range p.PartOf {
		p.PartOf[v] = -1
	}
	largest := 0
	for i, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("partition: part %d is empty", i)
		}
		largest = max(largest, len(part))
		for _, v := range part {
			if v < 0 || v >= g.NumNodes() {
				return nil, fmt.Errorf("partition: part %d contains out-of-range node %d", i, v)
			}
			if p.PartOf[v] != -1 {
				return nil, fmt.Errorf("partition: node %d in parts %d and %d", v, p.PartOf[v], i)
			}
			p.PartOf[v] = i
		}
	}
	seen := make([]bool, g.NumNodes())
	p.queue = make([]int, 0, largest)
	for i := range parts {
		if !p.connectedPartFlat(g, i, seen) {
			return nil, fmt.Errorf("partition: part %d does not induce a connected subgraph", i)
		}
	}
	p.queue = nil
	return p, nil
}

// NumParts returns the number of parts.
func (p *Partition) NumParts() int { return len(p.Parts) }

// Covered returns the number of nodes belonging to some part.
func (p *Partition) Covered() int {
	n := 0
	for _, i := range p.PartOf {
		if i >= 0 {
			n++
		}
	}
	return n
}

// BFSBlobs partitions all nodes of a connected graph into k connected parts
// by flooding simultaneously from k distinct random seeds: every node joins
// the region of the seed that reaches it first (BFS Voronoi cells, which are
// connected because every node's BFS parent lies in the same cell). Requires
// 1 <= k <= n. Each part lists its nodes in increasing order; the parts
// share one exact-size backing array.
func BFSBlobs(g *graph.Graph, k int, rng *rand.Rand) (*Partition, error) {
	n := g.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("partition: k = %d out of range [1,%d]", k, n)
	}
	owner := make([]int, n)
	for v := range owner {
		owner[v] = -1
	}
	// Connectivity first, on the flood's own arrays: one region from 0.
	owner[0] = 0
	queue := flood(g, owner, append(make([]int, 0, n), 0))
	if len(queue) < n {
		return nil, graph.ErrDisconnected
	}
	for v := range owner {
		owner[v] = -1
	}
	queue = queue[:0]
	for i, s := range rng.Perm(n)[:k] {
		owner[s] = i
		queue = append(queue, s)
	}
	flood(g, owner, queue)
	// Counting pass: start[i] is where part i begins in the backing array.
	start := make([]int, k+1)
	for _, o := range owner {
		start[o+1]++
	}
	for i := 1; i <= k; i++ {
		start[i] += start[i-1]
	}
	backing := make([]int, n)
	parts := make([][]int, k)
	for i := range parts {
		parts[i] = backing[start[i]:start[i]:start[i+1]]
	}
	for v, o := range owner {
		parts[o] = append(parts[o], v) // within the part's exact capacity
	}
	return validated(g, parts)
}

// flood grows the labeled nodes in queue into the unlabeled (-1) nodes of
// owner breadth-first, each node taking the label of the node that
// reaches it first, and returns queue extended by every node it labeled.
func flood(g *graph.Graph, owner, queue []int) []int {
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Neighbors(v) {
			if owner[a.To] == -1 {
				owner[a.To] = owner[v]
				queue = append(queue, a.To)
			}
		}
	}
	return queue
}

// FromLabelsInto rebuilds p in place from a node-label array, reusing its
// backing slices — the slice-reuse counterpart of FromLabels for loops
// that re-partition every round (e.g. Borůvka phases). Labels >= 0 must be
// smaller than the node count (DSU roots and other node-derived labels
// qualify); arbitrary sparse labels take the allocating FromLabels path.
//
// The caller owns p exclusively: rebuilding invalidates every previously
// returned view of it, so the structures of the previous round (shortcuts,
// routings, aggregation results) must already be discarded. On error the
// receiver is left half-written: do not read it, only pass it to a future
// FromLabelsInto call.
func FromLabelsInto(p *Partition, g *graph.Graph, label []int) (*Partition, error) {
	if p == nil {
		p = &Partition{}
	}
	p.canon.Store(nil) // the rebuild invalidates any memoized encoding
	n := g.NumNodes()
	if len(label) != n {
		return nil, fmt.Errorf("partition: label length %d, want %d", len(label), n)
	}
	for _, l := range label {
		if l >= n {
			return FromLabels(g, label)
		}
	}
	if cap(p.labelIdx) < n {
		p.labelIdx = make([]int, n)
		p.seen = make([]bool, n)
	}
	idx := p.labelIdx[:n]
	for i := range idx {
		idx[i] = -1
	}
	p.PartOf = graph.ResizeInts(p.PartOf, n)
	// First-appearance order over nodes, matching FromLabels.
	old := p.Parts
	parts := p.Parts[:0]
	for v, l := range label {
		if l < 0 {
			p.PartOf[v] = -1
			continue
		}
		i := idx[l]
		if i < 0 {
			i = len(parts)
			idx[l] = i
			if i < len(old) {
				parts = append(parts, old[i][:0])
			} else {
				parts = append(parts, nil)
			}
		}
		parts[i] = append(parts[i], v)
		p.PartOf[v] = i
	}
	p.Parts = parts
	seen := p.seen[:n]
	for i := range parts {
		ok := p.connectedPartFlat(g, i, seen)
		if !ok {
			return nil, fmt.Errorf("partition: part %d does not induce a connected subgraph", i)
		}
	}
	return p, nil
}

// connectedPartFlat runs a BFS over part i's induced subgraph on reusable
// scratch, the queue in p.queue: seen must be all-false on entry and is
// restored to all-false before returning.
func (p *Partition) connectedPartFlat(g *graph.Graph, i int, seen []bool) bool {
	part := p.Parts[i]
	queue := p.queue[:0]
	seen[part[0]] = true
	queue = append(queue, part[0])
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Neighbors(v) {
			if p.PartOf[a.To] == i && !seen[a.To] {
				seen[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	ok := len(queue) == len(part)
	for _, v := range queue {
		seen[v] = false
	}
	p.queue = queue
	return ok
}

// FromLabels builds a partition from a node-label array: every label >= 0
// becomes a part (labels need not be dense); -1 marks uncovered nodes.
func FromLabels(g *graph.Graph, label []int) (*Partition, error) {
	if len(label) != g.NumNodes() {
		return nil, fmt.Errorf("partition: label length %d, want %d", len(label), g.NumNodes())
	}
	index := make(map[int]int)
	var parts [][]int
	for v, l := range label {
		if l < 0 {
			continue
		}
		i, ok := index[l]
		if !ok {
			i = len(parts)
			index[l] = i
			parts = append(parts, nil)
		}
		parts[i] = append(parts[i], v)
	}
	return validated(g, parts)
}

// GridRows partitions a Grid(rows, cols) graph into its row paths.
func GridRows(g *graph.Graph, rows, cols int) (*Partition, error) {
	if rows*cols != g.NumNodes() {
		return nil, fmt.Errorf("partition: grid %dx%d does not match %d nodes", rows, cols, g.NumNodes())
	}
	backing := make([]int, rows*cols)
	parts := make([][]int, rows)
	for r := range parts {
		row := backing[r*cols : (r+1)*cols : (r+1)*cols]
		for c := range row {
			row[c] = graph.GridIndex(r, c, cols)
		}
		parts[r] = row
	}
	return validated(g, parts)
}

// WheelRim partitions a Wheel(n) graph into the rim (one big part of induced
// diameter Theta(n)) and the center (a singleton) — the paper's Section 2
// motivating example.
func WheelRim(g *graph.Graph) (*Partition, error) {
	n := g.NumNodes()
	rim := make([]int, n-1)
	for v := 1; v < n; v++ {
		rim[v-1] = v
	}
	return validated(g, [][]int{rim, {0}})
}

// Singletons partitions every node into its own part (the starting
// partition of Boruvka's algorithm).
func Singletons(g *graph.Graph) (*Partition, error) {
	backing := make([]int, g.NumNodes())
	parts := make([][]int, g.NumNodes())
	for v := range parts {
		backing[v] = v
		parts[v] = backing[v : v+1 : v+1]
	}
	return validated(g, parts)
}
