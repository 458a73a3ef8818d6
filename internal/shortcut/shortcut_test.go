package shortcut

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

func mustPartition(t *testing.T, g *graph.Graph, parts [][]int) *partition.Partition {
	t.Helper()
	p, err := partition.New(g, parts)
	if err != nil {
		t.Fatalf("partition.New error = %v", err)
	}
	return p
}

func mustTree(t *testing.T, g *graph.Graph, root int) *tree.Rooted {
	t.Helper()
	tr, err := tree.FromBFS(g, root)
	if err != nil {
		t.Fatalf("tree.FromBFS error = %v", err)
	}
	return tr
}

func TestEmptyShortcutMeasure(t *testing.T) {
	g := graph.Path(10)
	p := mustPartition(t, g, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	s := NewEmpty(g, p)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	q := Measure(s)
	if q.Congestion != 0 {
		t.Errorf("Congestion = %d, want 0", q.Congestion)
	}
	if q.Dilation != 4 {
		t.Errorf("Dilation = %d, want 4 (each part is a 5-path)", q.Dilation)
	}
	if q.MaxBlocks != 5 {
		t.Errorf("MaxBlocks = %d, want 5 (every node its own block)", q.MaxBlocks)
	}
	if q.CoveredParts != 2 {
		t.Errorf("CoveredParts = %d, want 2", q.CoveredParts)
	}
}

func TestMeasureWheelRim(t *testing.T) {
	// The paper's Section 2 example: rim part with induced diameter
	// Theta(n); a shortcut through the center via two spokes collapses it.
	g := graph.Wheel(12)
	p, err := partition.WheelRim(g)
	if err != nil {
		t.Fatalf("WheelRim error = %v", err)
	}
	s := NewEmpty(g, p)
	if q := Measure(s); q.Dilation != 5 {
		t.Errorf("empty-shortcut dilation = %d, want 5 (11-cycle)", q.Dilation)
	}
	// Give the rim every spoke edge: dilation drops to <= 2 hops via center.
	var spokes []int
	for _, a := range g.Neighbors(0) {
		spokes = append(spokes, a.Edge)
	}
	s.H[0] = spokes
	q := Measure(s)
	if q.Dilation != 2 {
		t.Errorf("spoke-shortcut dilation = %d, want 2", q.Dilation)
	}
	if q.Congestion != 1 {
		t.Errorf("Congestion = %d, want 1", q.Congestion)
	}
}

func TestMeasureAugmentedUsesOnlyPartInducedAndHEdges(t *testing.T) {
	// G = path 0-1-2-3-4 plus chord {0,4}. Part {0,4} with H = {edge(0,1)}:
	// the augmented graph has nodes {0,1,4} and edges {0,4} (induced on the
	// part) and {0,1} (H). Node 1 connects only through H; the G-edge {1,2}
	// is outside and must not appear.
	g := graph.Path(5)
	chord := g.AddEdge(0, 4)
	p := mustPartition(t, g, [][]int{{0, 4}})
	s := NewEmpty(g, p)
	s.H[0] = []int{0} // edge {0,1}
	q := Measure(s)
	if q.Dilation != 2 {
		t.Errorf("Dilation = %d, want 2 (4-0-1)", q.Dilation)
	}
	_ = chord
}

func TestValidateRejectsBadShortcut(t *testing.T) {
	g := graph.Cycle(6)
	p := mustPartition(t, g, [][]int{{0, 1, 2}})
	s := NewEmpty(g, p)
	wantErr := func(what, want string) {
		t.Helper()
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate on %s: %v, want %q", what, err, want)
		}
	}
	s.H[0] = []int{99}
	wantErr("out-of-range edge", "shortcut: part 0 uses out-of-range edge 99")
	s.H[0] = []int{1, 1}
	wantErr("duplicate edge", "shortcut: part 0 lists edge 1 twice")
	// The first bad listing is the one reported.
	s.H[0] = []int{1, 1, -1}
	wantErr("duplicate then out-of-range", "shortcut: part 0 lists edge 1 twice")
	s.H[0] = []int{-1, 1, 1}
	wantErr("out-of-range then duplicate", "shortcut: part 0 uses out-of-range edge -1")
	// Tree-restricted shortcut using a non-tree edge: the one edge of the
	// 6-cycle no node reaches its parent by.
	tr := mustTree(t, g, 0)
	onTree := make([]bool, g.NumEdges())
	for v, e := range tr.ParentEdge {
		if tr.Parent[v] >= 0 {
			onTree[e] = true
		}
	}
	off := slices.Index(onTree, false)
	s = &Shortcut{G: g, Parts: p, Tree: tr, H: [][]int{{off}}, Covered: []bool{true}}
	wantErr("non-tree edge", fmt.Sprintf("shortcut: part 0 uses non-tree edge %d in a tree-restricted shortcut", off))
	// A repeated non-tree edge fails at its first listing, as non-tree.
	s.H[0] = []int{off, off}
	wantErr("repeated non-tree edge", fmt.Sprintf("shortcut: part 0 uses non-tree edge %d in a tree-restricted shortcut", off))
	s.H[0] = nil
	if err := s.Validate(); err != nil {
		t.Errorf("Validate on empty tree-restricted shortcut: %v", err)
	}
}

func TestBuildPartialRejectsBadParams(t *testing.T) {
	g := graph.Path(4)
	p := mustPartition(t, g, [][]int{{0, 1}})
	tr := mustTree(t, g, 0)
	if _, err := BuildPartial(g, tr, p, 0, 1, nil); err == nil {
		t.Error("BuildPartial accepted c = 0")
	}
	if _, err := BuildPartial(g, tr, p, 1, -1, nil); err == nil {
		t.Error("BuildPartial accepted negative b")
	}
	other := mustTree(t, graph.Path(5), 0)
	if _, err := BuildPartial(g, other, p, 1, 1, nil); err == nil {
		t.Error("BuildPartial accepted mismatched tree")
	}
}

func TestBuildPartialSinglePartGetsRootPath(t *testing.T) {
	// One part on a path graph, generous thresholds: no edge overcongested,
	// the part receives all ancestor edges up to the root, one block.
	g := graph.Path(8)
	p := mustPartition(t, g, [][]int{{6, 7}})
	tr := mustTree(t, g, 0)
	pr, err := BuildPartial(g, tr, p, 10, 10, nil)
	if err != nil {
		t.Fatalf("BuildPartial error = %v", err)
	}
	if len(pr.Overcongested) != 0 {
		t.Errorf("Overcongested = %v, want none", pr.Overcongested)
	}
	if !pr.Shortcut.Covered[0] {
		t.Fatal("part not covered")
	}
	if got := len(pr.Shortcut.H[0]); got != 7 {
		t.Errorf("H_0 has %d edges, want 7 (all path edges)", got)
	}
	q := Measure(pr.Shortcut)
	if q.MaxBlocks != 1 {
		t.Errorf("MaxBlocks = %d, want 1", q.MaxBlocks)
	}
}

func TestBuildPartialOvercongestion(t *testing.T) {
	// Star with center root: every leaf its own part, c = 3. Leaf edges
	// carry exactly one part each (never cut); the paper's process only
	// counts parts below an edge, so no edge is overcongested here.
	g := graph.Star(6)
	parts := [][]int{{1}, {2}, {3}, {4}, {5}}
	p := mustPartition(t, g, parts)
	tr := mustTree(t, g, 0)
	pr, err := BuildPartial(g, tr, p, 3, 8, nil)
	if err != nil {
		t.Fatalf("BuildPartial error = %v", err)
	}
	if len(pr.Overcongested) != 0 {
		t.Errorf("Overcongested = %v, want none (each subtree has 1 part)", pr.Overcongested)
	}
	for i := range parts {
		if !pr.Shortcut.Covered[i] {
			t.Errorf("part %d not covered", i)
		}
	}
}

func TestBuildPartialCutsDeepEdge(t *testing.T) {
	// Caterpillar rooted at one end: spine node s has `legs` leaf parts
	// below it plus the spine continuation. With c small, spine edges near
	// the root must be overcongested.
	g := graph.Caterpillar(6, 4) // spine 6, 4 legs each: 30 nodes
	var parts [][]int
	for v := 0; v < g.NumNodes(); v++ {
		parts = append(parts, []int{v})
	}
	p := mustPartition(t, g, parts)
	tr := mustTree(t, g, 0)
	c := 6
	pr, err := BuildPartial(g, tr, p, c, 100, nil)
	if err != nil {
		t.Fatalf("BuildPartial error = %v", err)
	}
	if len(pr.Overcongested) == 0 {
		t.Fatal("expected overcongested edges on the spine")
	}
	for _, e := range pr.Overcongested {
		if got := len(pr.IE[e]); got < c {
			t.Errorf("overcongested edge %d has |I_e| = %d < c = %d", e, got, c)
		}
	}
	// Kept edges must have load < c among covered parts.
	loads := EdgeLoads(pr.Shortcut)
	for e, load := range loads {
		if load >= c {
			t.Errorf("kept edge %d has load %d >= c = %d", e, load, c)
		}
	}
}

func TestBuildPartialCongestionAndBlocksInvariant(t *testing.T) {
	// Random graphs, random partitions: for every (c, b), the partial
	// shortcut must satisfy congestion < c and blocks <= b+1 for covered
	// parts, and uncovered parts must have DegB > b.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		m := n - 1 + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.RandomConnected(n, m, rng)
		k := 2 + rng.Intn(n/2)
		p, err := partition.BFSBlobs(g, k, rng)
		if err != nil {
			t.Fatalf("BFSBlobs error = %v", err)
		}
		tr := mustTree(t, g, rng.Intn(n))
		c := 2 + rng.Intn(8)
		b := rng.Intn(6)
		pr, err := BuildPartial(g, tr, p, c, b, nil)
		if err != nil {
			t.Fatalf("BuildPartial error = %v", err)
		}
		if err := pr.Shortcut.Validate(); err != nil {
			t.Fatalf("shortcut invalid: %v", err)
		}
		q := Measure(pr.Shortcut)
		if q.Congestion >= c {
			t.Errorf("trial %d: congestion %d >= c %d", trial, q.Congestion, c)
		}
		if q.CoveredParts > 0 && q.MaxBlocks > b+1 {
			t.Errorf("trial %d: blocks %d > b+1 = %d", trial, q.MaxBlocks, b+1)
		}
		for i, covered := range pr.Shortcut.Covered {
			if !covered && pr.DegB[i] <= b {
				t.Errorf("trial %d: part %d uncovered with DegB %d <= b %d", trial, i, pr.DegB[i], b)
			}
		}
	}
}

func TestBuildPartialTheorem31Coverage(t *testing.T) {
	// Theorem 3.1: with c = 8*delta*D and b = 8*delta, at least half the
	// parts are covered. Grid graphs are planar: delta < 3, so delta = 3 is
	// a safe upper bound.
	rng := rand.New(rand.NewSource(7))
	g := graph.Grid(12, 12)
	tr := mustTree(t, g, 0)
	depth := tr.MaxDepth()
	for _, k := range []int{4, 12, 36} {
		p, err := partition.BFSBlobs(g, k, rng)
		if err != nil {
			t.Fatalf("BFSBlobs error = %v", err)
		}
		pr, err := BuildPartial(g, tr, p, 8*3*depth, 8*3, nil)
		if err != nil {
			t.Fatalf("BuildPartial error = %v", err)
		}
		covered := pr.Shortcut.CoveredCount()
		if covered*2 < k {
			t.Errorf("k=%d: covered %d < k/2 (Theorem 3.1 violated)", k, covered)
		}
	}
}

func TestBuildPartialActiveMask(t *testing.T) {
	g := graph.Path(10)
	p := mustPartition(t, g, [][]int{{0, 1}, {4, 5}, {8, 9}})
	tr := mustTree(t, g, 0)
	active := []bool{true, false, true}
	pr, err := BuildPartial(g, tr, p, 5, 5, active)
	if err != nil {
		t.Fatalf("BuildPartial error = %v", err)
	}
	if pr.Shortcut.Covered[1] {
		t.Error("inactive part was covered")
	}
	if !pr.Shortcut.Covered[0] || !pr.Shortcut.Covered[2] {
		t.Error("active parts not covered")
	}
}

// buildRootedOn runs a default Build of g's singleton partition and returns
// the tree the shortcut is restricted to, checking the Result's TreeDepth
// against it.
func buildRootedOn(t *testing.T, g *graph.Graph) *tree.Rooted {
	t.Helper()
	p, err := partition.Singletons(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Shortcut.Tree
	if res.TreeDepth != tr.MaxDepth() {
		t.Errorf("Result.TreeDepth = %d, tree depth %d", res.TreeDepth, tr.MaxDepth())
	}
	return tr
}

func TestChooseRoot(t *testing.T) {
	// The choose_root stage: with no Options.Tree, a build on a path runs on
	// the tree rooted at the middle node, halving the D of its dilation.
	tr := buildRootedOn(t, graph.Path(21))
	if tr.Root != 10 || tr.MaxDepth() != 10 {
		t.Errorf("build tree root %d depth %d, want root 10 depth 10", tr.Root, tr.MaxDepth())
	}
}

func TestCeilLog2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := CeilLog2(tt.in); got != tt.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMeasureApproxPathForLargeParts(t *testing.T) {
	// A trivial-baseline shortcut on a big wheel puts the whole BFS tree in
	// the rim's H, pushing the augmented subgraph past the exact-diameter
	// limit: Measure must fall back to the double-sweep upper bound and say
	// so, and the bound must still dominate the true dilation (2 here).
	g := graph.Wheel(2000)
	p, err := partition.WheelRim(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Trivial(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(s)
	if q.DilationExact {
		t.Error("DilationExact = true for a 2000-node augmented subgraph")
	}
	exact := PartDilation(s, 0)
	if exact < 0 {
		t.Fatal("augmented rim subgraph disconnected")
	}
	if q.Dilation < exact {
		t.Errorf("approx dilation %d below exact %d", q.Dilation, exact)
	}
	if q.Dilation > 2*exact {
		t.Errorf("approx dilation %d above twice the exact value %d", q.Dilation, exact)
	}
}

func TestMeasureDisconnectedAugmentedSentinel(t *testing.T) {
	// An H-edge island with no connection to its part: G[P]+H is
	// disconnected, and Measure must report the n+1 sentinel dilation
	// (unbounded) rather than a finite value.
	g := graph.Path(5) // edges 0:{0,1} 1:{1,2} 2:{2,3} 3:{3,4}
	p := mustPartition(t, g, [][]int{{0, 1}})
	s := &Shortcut{G: g, Parts: p, H: [][]int{{3}}, Covered: []bool{true}}
	q := Measure(s)
	if q.Dilation != g.NumNodes()+1 {
		t.Errorf("dilation = %d, want sentinel %d", q.Dilation, g.NumNodes()+1)
	}
}

func TestPartDilation(t *testing.T) {
	g := graph.Wheel(10)
	p, err := partition.WheelRim(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewEmpty(g, p)
	if d := PartDilation(s, 0); d != 4 {
		t.Errorf("rim dilation = %d, want 4 (9-cycle)", d)
	}
	if d := PartDilation(s, 1); d != 0 {
		t.Errorf("hub dilation = %d, want 0", d)
	}
}

func TestChooseRootNearRadius(t *testing.T) {
	// A build's tree depth D must be close to the radius, not the
	// diameter: every δD bound the build reports depends on it.
	tests := []struct {
		name     string
		g        *graph.Graph
		maxDepth int
	}{
		{name: "grid 15x15", g: graph.Grid(15, 15), maxDepth: 15},
		{name: "path 31", g: graph.Path(31), maxDepth: 16},
		{name: "wheel 50", g: graph.Wheel(50), maxDepth: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tr := buildRootedOn(t, tt.g); tr.MaxDepth() > tt.maxDepth {
				t.Errorf("depth = %d, want <= %d", tr.MaxDepth(), tt.maxDepth)
			}
		})
	}
}
