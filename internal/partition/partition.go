package partition

import (
	"fmt"
	"math/rand"
	"sync"

	"locshort/internal/graph"
)

// Partition is a validated collection of node-disjoint connected parts.
type Partition struct {
	// Parts holds the node IDs of each part.
	Parts [][]int
	// PartOf maps a node to its part index, or -1 if uncovered.
	PartOf []int

	// labelIdx is FromLabelsInto's dense label-index table, kept across
	// rebuilds.
	labelIdx []int
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
// then checks that every part induces a connected subgraph of g.
func validated(g *graph.Graph, parts [][]int) (*Partition, error) {
	p := &Partition{Parts: parts, PartOf: make([]int, g.NumNodes())}
	for v := range p.PartOf {
		p.PartOf[v] = -1
	}
	for i, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("partition: part %d is empty", i)
		}
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
	return p.connected(g)
}

// FromCanonical fills p with the partition of g whose canonical part
// assignment is partOf, taking ownership of partOf as PartOf and of parts
// as Parts: partOf[v] is -1 for an uncovered node, else the rank of v's
// part by first appearance over nodes 0..n-1, and all k = len(parts)
// ranks appear. That is the label sequence of the canonical encoding
// (service.FingerprintPartition), so the partition re-encodes to exactly
// those labels, with Parts[i] the part of rank i. One counting pass lays
// the parts out in one backing array, nodes ascending within a part; then
// every part must induce a connected subgraph of g. Labels out of range or
// out of first-appearance order are rejected, as is a k the labels do not
// use up. When partOf has spare capacity for the covered nodes, the
// backing array is carved from it, so a caller that sizes partOf so, and
// allocates p and parts as part of something it allocates anyway, pays no
// allocation here. On error p is left half-written.
func FromCanonical(p *Partition, g *graph.Graph, partOf []int, parts [][]int) error {
	n, k := g.NumNodes(), len(parts)
	if len(partOf) != n {
		return fmt.Errorf("partition: %d labels, want %d", len(partOf), n)
	}
	if k > n {
		return fmt.Errorf("partition: %d parts for %d nodes", k, n)
	}
	next := 0
	for v, l := range partOf {
		switch {
		case l < -1 || l >= k:
			return fmt.Errorf("partition: node %d label %d outside [-1,%d)", v, l, k)
		case l > next:
			return fmt.Errorf("partition: node %d label %d precedes label %d (not first-appearance order)", v, l, next)
		case l == next:
			next++
		}
	}
	if next != k {
		return fmt.Errorf("partition: labels use %d of %d parts", next, k)
	}
	*p = Partition{Parts: layout(partOf, parts), PartOf: partOf[:n:n]}
	_, err := p.connected(g)
	return err
}

// layout lays out the parts of a label array — label[v] is v's part in
// [0,len(parts)), or -1 — into parts, in one backing array with one
// counting pass, nodes ascending within a part, and returns parts. The
// backing array is carved from label's spare capacity when it has room.
// Every part is a full slice expression, so appending to one reallocates
// instead of running into the next.
func layout(label []int, parts [][]int) [][]int {
	k := len(parts)
	sp := scratchPool.Get().(*[]int)
	defer scratchPool.Put(sp)
	// start[i+1] counts part i, then the prefix sums make start[i] where
	// part i begins in the backing array.
	start := graph.ResizeInts(*sp, k+1)
	*sp = start
	clear(start)
	for _, l := range label {
		if l >= 0 {
			start[l+1]++
		}
	}
	for i := 1; i <= k; i++ {
		start[i] += start[i-1]
	}
	backing := label[len(label):cap(label)]
	if len(backing) < start[k] {
		backing = make([]int, start[k])
	}
	for i := range parts {
		parts[i] = backing[start[i]:start[i]:start[i+1]]
	}
	for v, l := range label {
		if l >= 0 {
			parts[l] = append(parts[l], v) // within the part's exact capacity
		}
	}
	return parts
}

// scratchPool recycles the int scratch of partition construction (the
// connectivity BFS queue, layout's part offsets), so building a partition
// allocates only what the partition keeps.
var scratchPool = sync.Pool{New: func() any { return new([]int) }}

// connected returns p if every part induces a connected subgraph of g,
// else an error naming the first part that does not. The BFS marks a
// visited node of part i by setting its PartOf entry to -2-i, which no
// unvisited node holds, and restores the entries afterwards, so it needs
// no visited array; its queue comes from scratchPool.
func (p *Partition) connected(g *graph.Graph) (*Partition, error) {
	sp := scratchPool.Get().(*[]int)
	defer scratchPool.Put(sp)
	c := g.CSR()
	for i, part := range p.Parts {
		mark := -2 - i
		queue := append((*sp)[:0], part[0])
		p.PartOf[part[0]] = mark
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, to := range c.To[c.Offsets[v]:c.Offsets[v+1]] {
				if p.PartOf[to] == i {
					p.PartOf[to] = mark
					queue = append(queue, int(to))
				}
			}
		}
		for _, v := range queue {
			p.PartOf[v] = i
		}
		*sp = queue
		if len(queue) != len(part) {
			return nil, fmt.Errorf("partition: part %d does not induce a connected subgraph", i)
		}
	}
	return p, nil
}

// NumParts returns the number of parts.
func (p *Partition) NumParts() int { return len(p.Parts) }

// CanonicalRanks returns each part's rank by first appearance over nodes
// 0..n-1: its label in the canonical encoding, the order FromCanonical
// reads back. It fills buf when buf has room for NumParts ranks.
func (p *Partition) CanonicalRanks(buf []int32) []int32 {
	k := p.NumParts()
	rank := buf[:0]
	if cap(rank) < k {
		rank = make([]int32, 0, k)
	}
	rank = rank[:k]
	for i := range rank {
		rank[i] = -1
	}
	next := int32(0)
	for _, i := range p.PartOf {
		if i >= 0 && rank[i] < 0 {
			rank[i] = next
			next++
		}
	}
	return rank
}

// BFSBlobs partitions all nodes of a connected graph into k connected parts
// by flooding simultaneously from k distinct random seeds: every node joins
// the region of the seed that reaches it first (BFS Voronoi cells, which are
// connected because every node's BFS parent lies in the same cell). Requires
// 1 <= k <= n. Each part lists its nodes in increasing order; the parts
// share one exact-size backing array.
//
// The seeds are the first k entries of rng.Perm(n), drawn by Perm's own
// loop into pooled scratch, so rng is left as Perm leaves it. The flood
// queues share that scratch, and the parts' backing array is carved from
// PartOf's spare capacity: the partition, its PartOf and its Parts are all
// BFSBlobs allocates.
func BFSBlobs(g *graph.Graph, k int, rng *rand.Rand) (*Partition, error) {
	n := g.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("partition: k = %d out of range [1,%d]", k, n)
	}
	owner := make([]int, n, 2*n)
	for v := range owner {
		owner[v] = -1
	}
	sp := scratchPool.Get().(*[]int)
	scratch := graph.ResizeInts(*sp, n)
	*sp = scratch
	// Connectivity first, on the flood's own arrays: one region from 0.
	owner[0] = 0
	if len(flood(g, owner, append(scratch[:0], 0))) < n {
		scratchPool.Put(sp)
		return nil, graph.ErrDisconnected
	}
	for v := range owner {
		owner[v] = -1
	}
	// rand.(*Rand).Perm's loop, which reads no entry before writing it.
	perm := scratch
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	// The seeds start the queue where Perm left them; the flood appends
	// over the rest of the permutation, which is not needed any more.
	queue := perm[:k]
	for i, s := range queue {
		owner[s] = i
	}
	flood(g, owner, queue)
	scratchPool.Put(sp)
	// owner is the finished PartOf: every node joined exactly one region.
	p := &Partition{Parts: layout(owner, make([][]int, k)), PartOf: owner[:n:n]}
	return p.connected(g)
}

// flood grows the labeled nodes in queue into the unlabeled (-1) nodes of
// owner breadth-first, each node taking the label of the node that
// reaches it first, and returns queue extended by every node it labeled.
func flood(g *graph.Graph, owner, queue []int) []int {
	c := g.CSR()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, to := range c.To[c.Offsets[v]:c.Offsets[v+1]] {
			if owner[to] == -1 {
				owner[to] = owner[v]
				queue = append(queue, int(to))
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
	n := g.NumNodes()
	if len(label) != n {
		return nil, fmt.Errorf("partition: label length %d, want %d", len(label), n)
	}
	for _, l := range label {
		if l >= n {
			return FromLabels(g, label)
		}
	}
	idx := graph.ResizeInts(p.labelIdx, n)
	p.labelIdx = idx
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
	return p.connected(g)
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

// GridRows partitions a Grid(rows, cols) graph into its row paths. Each
// factor is checked before they are multiplied, so a negative pair (-1 x
// -4) or one whose product wraps cannot pass as the node count.
func GridRows(g *graph.Graph, rows, cols int) (*Partition, error) {
	n := g.NumNodes()
	if rows < 1 || cols < 1 || rows > n/cols || rows*cols != n {
		return nil, fmt.Errorf("partition: grid %dx%d does not match %d nodes", rows, cols, n)
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
