package graph

import (
	"errors"
	"reflect"
	"testing"
)

func TestBFSTreeMemoizedAndInvalidated(t *testing.T) {
	g := Grid(5, 5)
	t1 := g.BFSTree()
	if t2 := g.BFSTree(); t2 != t1 {
		t.Error("BFS tree not memoized across calls")
	}
	if t1.Root != 12 || ChooseRoot(g) != 12 {
		t.Errorf("root = %d, ChooseRoot = %d, want the grid center 12", t1.Root, ChooseRoot(g))
	}
	if want := BFS(g, t1.Root); !reflect.DeepEqual(t1.BFSResult, *want) {
		t.Error("memoized tree differs from a BFS from its root")
	}
	// A corner-to-corner chord pulls node 24 next to node 0: the tree must
	// be recomputed, not served from the memo.
	g.AddEdge(0, 24)
	t3 := g.BFSTree()
	if t3 == t1 {
		t.Fatal("BFS tree not invalidated by AddEdge")
	}
	if want := BFS(g, t3.Root); !reflect.DeepEqual(t3.BFSResult, *want) {
		t.Error("recomputed tree differs from a BFS from its root")
	}
	if len(t3.Order) != g.NumNodes() {
		t.Errorf("recomputed tree spans %d of %d nodes", len(t3.Order), g.NumNodes())
	}
}

func TestBFSTreeEmptyAndDisconnected(t *testing.T) {
	if r := New(0).BFSTree(); r.Root != 0 || len(r.Order) != 0 {
		t.Errorf("empty graph: root %d, %d tree nodes", r.Root, len(r.Order))
	}
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if r := g.BFSTree(); len(r.Order) != 2 {
		t.Errorf("disconnected graph: tree spans %d nodes, want the root's 2", len(r.Order))
	}
}

func TestChooseRoot(t *testing.T) {
	// On a path the chosen root must be the middle node, halving tree depth.
	g := Path(21)
	root := ChooseRoot(g)
	if root != 10 {
		t.Errorf("ChooseRoot(path21) = %d, want 10", root)
	}
	if d := bfsDepth(g, root); d != 10 {
		t.Errorf("tree depth = %d, want 10", d)
	}
	if got := ChooseRoot(New(0)); got != 0 {
		t.Errorf("ChooseRoot(empty) = %d, want 0", got)
	}
}

func TestChooseRootNearRadius(t *testing.T) {
	// The chosen root's BFS depth must be close to the radius, not the
	// diameter — the property every δD bound depends on.
	tests := []struct {
		name     string
		g        *Graph
		maxDepth int
	}{
		{name: "grid 15x15", g: Grid(15, 15), maxDepth: 15},
		{name: "path 31", g: Path(31), maxDepth: 16},
		{name: "wheel 50", g: Wheel(50), maxDepth: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if d := bfsDepth(tt.g, ChooseRoot(tt.g)); d > tt.maxDepth {
				t.Errorf("depth = %d, want <= %d", d, tt.maxDepth)
			}
		})
	}
}

// bfsDepth is the depth of the BFS tree of g from root.
func bfsDepth(g *Graph, root int) int {
	r := BFS(g, root)
	return r.Dist[r.Order[len(r.Order)-1]]
}

func TestCheckSize(t *testing.T) {
	for _, tt := range []struct {
		n, m int
		ok   bool
	}{
		{MaxNodes, MaxEdges, true},
		{MaxNodes + 1, 0, false},
		{1, MaxEdges + 1, false},
	} {
		err := CheckSize(tt.n, tt.m)
		if (err == nil) != tt.ok || (err != nil && !errors.Is(err, ErrTooLarge)) {
			t.Errorf("CheckSize(%d, %d) = %v, want ok=%v", tt.n, tt.m, err, tt.ok)
		}
	}
}

func TestLowerBoundSizeLimit(t *testing.T) {
	for _, p := range [][2]int{{5, 2046}, {5, 2052}, {5, MaxNodes + 1}, {MaxNodes + 1, 1 << 40}, {1 << 62, 1 << 62}} {
		if _, err := LowerBound(p[0], p[1]); !errors.Is(err, ErrTooLarge) {
			t.Errorf("LowerBound(%d, %d) = %v, want ErrTooLarge", p[0], p[1], err)
		}
	}
}
