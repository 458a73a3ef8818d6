package tree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"locshort/internal/graph"
)

func mustBFS(t *testing.T, g *graph.Graph, root int) *Rooted {
	t.Helper()
	tr, err := FromBFS(g, root)
	if err != nil {
		t.Fatalf("FromBFS error = %v", err)
	}
	return tr
}

func TestFromBFSPath(t *testing.T) {
	g := graph.Path(5)
	tr := mustBFS(t, g, 0)
	if tr.Root != 0 {
		t.Errorf("Root = %d, want 0", tr.Root)
	}
	if tr.MaxDepth() != 4 {
		t.Errorf("MaxDepth = %d, want 4", tr.MaxDepth())
	}
	for v := 1; v < 5; v++ {
		if tr.Parent[v] != v-1 {
			t.Errorf("Parent[%d] = %d, want %d", v, tr.Parent[v], v-1)
		}
	}
}

func TestFromBFSDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	if _, err := FromBFS(g, 0); err != graph.ErrDisconnected {
		t.Errorf("FromBFS error = %v, want ErrDisconnected", err)
	}
}

func TestChildrenConsistent(t *testing.T) {
	g := graph.Grid(4, 4)
	tr := mustBFS(t, g, 0)
	children := tr.Children()
	count := 0
	for p, cs := range children {
		for _, c := range cs {
			count++
			if tr.Parent[c] != p {
				t.Errorf("child %d of %d has Parent %d", c, p, tr.Parent[c])
			}
			if tr.Depth[c] != tr.Depth[p]+1 {
				t.Errorf("child %d depth %d, parent depth %d", c, tr.Depth[c], tr.Depth[p])
			}
		}
	}
	if count != g.NumNodes()-1 {
		t.Errorf("children count = %d, want %d", count, g.NumNodes()-1)
	}
}

func TestOrderIsTopDown(t *testing.T) {
	g := graph.Wheel(12)
	tr := mustBFS(t, g, 3)
	seen := make(map[int]bool)
	for _, v := range tr.Order {
		if p := tr.Parent[v]; p != -1 && !seen[p] {
			t.Errorf("node %d appears before its parent %d", v, p)
		}
		seen[v] = true
	}
	if len(tr.Order) != g.NumNodes() {
		t.Errorf("Order covers %d nodes, want %d", len(tr.Order), g.NumNodes())
	}
}

func TestFromParents(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//    |
	//    3
	parent := []int{-1, 0, 0, 1}
	pe := []int{-1, 10, 11, 12}
	tr, err := FromParents(0, parent, pe)
	if err != nil {
		t.Fatalf("FromParents error = %v", err)
	}
	wantDepth := []int{0, 1, 1, 2}
	for v, d := range wantDepth {
		if tr.Depth[v] != d {
			t.Errorf("Depth[%d] = %d, want %d", v, tr.Depth[v], d)
		}
	}
}

func TestFromParentsRejectsCycle(t *testing.T) {
	parent := []int{-1, 2, 3, 1}
	pe := []int{-1, 0, 1, 2}
	if _, err := FromParents(0, parent, pe); err == nil {
		t.Error("FromParents accepted a cyclic parent array")
	}
}

func TestFromParentsRejectsBadRoot(t *testing.T) {
	if _, err := FromParents(5, []int{-1, 0}, []int{-1, 0}); err == nil {
		t.Error("FromParents accepted out-of-range root")
	}
	if _, err := FromParents(0, []int{1, -1}, []int{0, -1}); err == nil {
		t.Error("FromParents accepted root with a parent")
	}
}

// isAncestor reports whether a is an ancestor of v (every node is its own
// ancestor) by walking parent pointers: the oracle for the Euler-interval
// and LCA checks.
func isAncestor(tr *Rooted, a, v int) bool {
	for ; v != -1; v = tr.Parent[v] {
		if v == a {
			return true
		}
	}
	return false
}

func TestLCA(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := mustBFS(t, g, 0)
	for v := 0; v < g.NumNodes(); v++ {
		if l := tr.LCA(v, v); l != v {
			t.Errorf("LCA(%d,%d) = %d, want %d", v, v, l, v)
		}
	}
	// LCA must be a common ancestor of maximum depth.
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			l := tr.LCA(u, v)
			if !isAncestor(tr, l, u) || !isAncestor(tr, l, v) {
				t.Fatalf("LCA(%d,%d) = %d is not a common ancestor", u, v, l)
			}
		}
	}
}

func TestEulerIntervalsMatchIsAncestor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(40, 60, rng)
	tr := mustBFS(t, g, 7)
	iv := tr.EulerIntervals()
	for u := 0; u < 40; u++ {
		for v := 0; v < 40; v++ {
			if got, want := iv.Ancestor(u, v), isAncestor(tr, u, v); got != want {
				t.Fatalf("Ancestor(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestSubtreeSum(t *testing.T) {
	g := graph.Path(4) // chain rooted at 0
	tr := mustBFS(t, g, 0)
	vals := []int64{1, 2, 3, 4}
	got := tr.SubtreeSum(vals)
	want := []int64{10, 9, 7, 4}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("SubtreeSum[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// Property: on random connected graphs, BFS-tree depths equal graph
// distances from the root, and SubtreeSum of all-ones counts subtree sizes
// which sum to n along any root path sequence.
func TestRootedInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%50
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(n)
		if m > maxM {
			m = maxM
		}
		g := graph.RandomConnected(n, m, rng)
		root := rng.Intn(n)
		tr, err := FromBFS(g, root)
		if err != nil {
			return false
		}
		dist := graph.BFS(g, root).Dist
		for v := 0; v < n; v++ {
			if tr.Depth[v] != dist[v] {
				return false
			}
		}
		ones := make([]int64, n)
		for i := range ones {
			ones[i] = 1
		}
		sizes := tr.SubtreeSum(ones)
		if sizes[root] != int64(n) {
			return false
		}
		for v := 0; v < n; v++ {
			if sizes[v] < 1 || sizes[v] > int64(n) {
				return false
			}
			if p := tr.Parent[v]; p >= 0 && sizes[p] <= sizes[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Shared hands every caller its own header around the graph's one set of
// arrays, equal to a BFS tree from the chosen root.
func TestShared(t *testing.T) {
	g := graph.Grid(6, 7)
	a, err := Shared(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(g)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Shared returned one header twice")
	}
	if &a.Parent[0] != &b.Parent[0] || &a.ParentEdge[0] != &b.ParentEdge[0] ||
		&a.Depth[0] != &b.Depth[0] || &a.Order[0] != &b.Order[0] {
		t.Fatal("Shared trees do not share their arrays")
	}
	want := mustBFS(t, g, graph.ChooseRoot(g))
	if a.Root != want.Root || !reflect.DeepEqual(a.Parent, want.Parent) ||
		!reflect.DeepEqual(a.ParentEdge, want.ParentEdge) ||
		!reflect.DeepEqual(a.Depth, want.Depth) || !reflect.DeepEqual(a.Order, want.Order) {
		t.Fatal("Shared tree differs from FromBFS at the chosen root")
	}
	// The Children memo belongs to the header.
	a.Children()
	if b.children != nil {
		t.Error("Children memo leaked to another header")
	}
	d := graph.New(3)
	d.AddEdge(0, 1)
	if _, err := Shared(d); err != graph.ErrDisconnected {
		t.Errorf("Shared on a disconnected graph: error %v, want ErrDisconnected", err)
	}

	// SharedInto fills a caller's header in place: the same arrays, a
	// fresh Children memo, no allocation; a disconnected graph leaves the
	// header as it was.
	var c Rooted
	c.children = a.Children()
	if n := testing.AllocsPerRun(10, func() {
		if err := SharedInto(&c, g); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SharedInto: %.0f allocs/op, want 0", n)
	}
	if c.Root != a.Root || &c.ParentEdge[0] != &a.ParentEdge[0] || &c.Order[0] != &a.Order[0] || c.children != nil {
		t.Fatal("SharedInto did not fill the header with the graph's shared tree")
	}
	if err := SharedInto(&c, d); err != graph.ErrDisconnected || c.Root != a.Root {
		t.Errorf("SharedInto on a disconnected graph: error %v, root %d; want ErrDisconnected and the header kept", err, c.Root)
	}
}
