package tree

import (
	"fmt"

	"locshort/internal/graph"
)

// Rooted is a rooted spanning tree (or forest fragment) of a graph, stored
// as parent pointers. Node IDs are those of the underlying graph. Trees
// from Shared share their arrays with every other tree on the same graph,
// so nothing writes a Rooted's arrays once it is built.
type Rooted struct {
	Root int
	// Parent[v] is the parent node of v, or -1 for the root and for nodes
	// outside the tree.
	Parent []int
	// ParentEdge[v] is the graph edge ID connecting v to Parent[v], or -1.
	ParentEdge []int
	// Depth[v] is the hop distance from the root, or -1 for nodes outside
	// the tree.
	Depth []int
	// Order lists tree nodes in nondecreasing depth (root first). Reversing
	// it yields a valid bottom-up (children before parents) order.
	Order []int

	children [][]int
}

// FromBFS roots a BFS tree of g at root. It returns an error if g is not
// connected, since the paper's constructions assume spanning trees.
func FromBFS(g *graph.Graph, root int) (*Rooted, error) {
	r := graph.BFS(g, root)
	if len(r.Order) != g.NumNodes() {
		return nil, graph.ErrDisconnected
	}
	t := &Rooted{
		Root:       root,
		Parent:     r.Parent,
		ParentEdge: r.ParentEdge,
		Depth:      r.Dist,
		Order:      r.Order,
	}
	return t, nil
}

// Shared returns g's BFS tree from its chosen root (graph.ChooseRoot): a
// fresh Rooted header around the arrays the graph memoizes (see
// (*graph.Graph).BFSTree). Every caller on one graph shares those arrays,
// so they must be treated as read-only; the header, and with it the lazy
// Children memo, belongs to the caller. The first call on a graph pays the
// root search and one BFS; later calls allocate only the header. It
// returns an error if g is not connected, like FromBFS.
func Shared(g *graph.Graph) (*Rooted, error) {
	t := new(Rooted)
	if err := SharedInto(t, g); err != nil {
		return nil, err
	}
	return t, nil
}

// SharedInto is Shared into a header the caller owns, such as a field of
// a larger object it allocates anyway: it overwrites t with g's shared
// tree and allocates nothing once the graph's memo exists. On error t is
// left as it was.
func SharedInto(t *Rooted, g *graph.Graph) error {
	r := g.BFSTree()
	if len(r.Order) != g.NumNodes() {
		return graph.ErrDisconnected
	}
	*t = Rooted{
		Root:       r.Root,
		Parent:     r.Parent,
		ParentEdge: r.ParentEdge,
		Depth:      r.Dist,
		Order:      r.Order,
	}
	return nil
}

// FromParents builds a Rooted from explicit parent and parent-edge arrays.
// The distributed algorithms use it to materialize the tree a protocol
// computed, and the store to rebuild a persisted restriction tree. It
// validates acyclicity and depth consistency.
//
// The call allocates a constant number of times, independent of n: Depth
// and Order share one backing array, the upward walks that fill Depth
// stack their paths in Order's half, and a stable counting sort on depth
// then overwrites that half with the order, nodes of equal depth in
// ascending index.
func FromParents(root int, parent, parentEdge []int) (*Rooted, error) {
	n := len(parent)
	if root < 0 || root >= n || parent[root] != -1 {
		return nil, fmt.Errorf("tree: invalid root %d", root)
	}
	buf := make([]int, 2*n)
	depth, order := buf[:n:n], buf[n:]
	for v := range depth {
		depth[v] = -1
	}
	depth[root] = 0
	// onPath marks the nodes of the current walk: meeting one again means
	// the walk went round a cycle. A walk never revisits a node, so its
	// path holds at most n-1 nodes and fits in order.
	const onPath = -2
	for v := 0; v < n; v++ {
		if depth[v] >= 0 {
			continue
		}
		// Walk up to a node of known depth, then unwind.
		path := order[:0]
		u := v
		for depth[u] < 0 {
			if depth[u] == onPath {
				return nil, fmt.Errorf("tree: cycle through node %d", v)
			}
			depth[u] = onPath
			path = append(path, u)
			u = parent[u]
			if u < 0 || u >= n {
				return nil, fmt.Errorf("tree: node %d escapes the tree", v)
			}
		}
		d := depth[u]
		for i := len(path) - 1; i >= 0; i-- {
			d++
			depth[path[i]] = d
		}
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	// next[d] is the next free slot of depth d's run in order.
	next := make([]int, maxDepth+2)
	for _, d := range depth {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	for v, d := range depth {
		order[next[d]] = v
		next[d]++
	}
	return &Rooted{Root: root, Parent: parent, ParentEdge: parentEdge, Depth: depth, Order: order}, nil
}

// NumNodes returns the number of nodes of the underlying graph.
func (t *Rooted) NumNodes() int { return len(t.Parent) }

// MaxDepth returns the depth of the deepest tree node.
func (t *Rooted) MaxDepth() int {
	max := 0
	for _, d := range t.Depth {
		if d > max {
			max = d
		}
	}
	return max
}

// Children returns the child lists of every node, computing them on first
// use. The returned slices are owned by the tree.
func (t *Rooted) Children() [][]int {
	if t.children == nil {
		t.children = make([][]int, len(t.Parent))
		for v, p := range t.Parent {
			if p >= 0 {
				t.children[p] = append(t.children[p], v)
			}
		}
	}
	return t.children
}

// Intervals holds Euler-tour interval labels: u is an ancestor of v iff
// In[u] <= In[v] && Out[v] <= Out[u].
type Intervals struct {
	In, Out []int
}

// EulerIntervals computes interval labels with an iterative DFS. Children
// are visited in Children() order, so labels are deterministic.
func (t *Rooted) EulerIntervals() *Intervals {
	n := len(t.Parent)
	iv := &Intervals{In: make([]int, n), Out: make([]int, n)}
	children := t.Children()
	timer := 0
	type frame struct{ v, childIdx int }
	stack := []frame{{v: t.Root}}
	iv.In[t.Root] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.childIdx < len(children[f.v]) {
			c := children[f.v][f.childIdx]
			f.childIdx++
			iv.In[c] = timer
			timer++
			stack = append(stack, frame{v: c})
			continue
		}
		iv.Out[f.v] = timer
		timer++
		stack = stack[:len(stack)-1]
	}
	return iv
}

// Ancestor reports whether u is an ancestor of v (inclusive) under the
// interval labels.
func (iv *Intervals) Ancestor(u, v int) bool {
	return iv.In[u] <= iv.In[v] && iv.Out[v] <= iv.Out[u]
}

// LCA returns the lowest common ancestor of u and v by walking parents.
// O(depth); used for ground-truth checks and protocol setup, not in
// round-counted code.
func (t *Rooted) LCA(u, v int) int {
	for t.Depth[u] > t.Depth[v] {
		u = t.Parent[u]
	}
	for t.Depth[v] > t.Depth[u] {
		v = t.Parent[v]
	}
	for u != v {
		u = t.Parent[u]
		v = t.Parent[v]
	}
	return u
}

// SubtreeSum aggregates values bottom-up: out[v] = value[v] + sum of out[c]
// over children c of v.
func (t *Rooted) SubtreeSum(value []int64) []int64 {
	out := make([]int64, len(value))
	copy(out, value)
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if p := t.Parent[v]; p >= 0 {
			out[p] += out[v]
		}
	}
	return out
}
