package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if got := g.NumNodes(); got != 5 {
		t.Errorf("NumNodes() = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Errorf("NumEdges() = %d, want 0", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1)
	if id != 0 {
		t.Errorf("first edge ID = %d, want 0", id)
	}
	id = g.AddWeightedEdge(1, 2, 2.5)
	if id != 1 {
		t.Errorf("second edge ID = %d, want 1", id)
	}
	if e := g.Edge(1); e.W != 2.5 {
		t.Errorf("Edge(1).W = %v, want 2.5", e.W)
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Error("HasEdge disagrees with the added edges")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	tests := []struct {
		name string
		u, v int
	}{
		{name: "self loop", u: 1, v: 1},
		{name: "negative", u: -1, v: 0},
		{name: "out of range", u: 0, v: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", tt.u, tt.v)
				}
			}()
			New(3).AddEdge(tt.u, tt.v)
		})
	}
}

func TestOther(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 2)
	if got := g.Other(id, 0); got != 2 {
		t.Errorf("Other(id, 0) = %d, want 2", got)
	}
	if got := g.Other(id, 2); got != 0 {
		t.Errorf("Other(id, 2) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with non-endpoint did not panic")
		}
	}()
	g.Other(id, 1)
}

func TestClone(t *testing.T) {
	g := Cycle(5)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.NumEdges() == c.NumEdges() {
		t.Error("modifying clone affected original edge count")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original Validate() = %v after clone edit", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone Validate() = %v", err)
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(6)
	r := BFS(g, 0)
	for v := 0; v < 6; v++ {
		if r.Dist[v] != v {
			t.Errorf("Dist[%d] = %d, want %d", v, r.Dist[v], v)
		}
	}
	if r.Parent[0] != -1 {
		t.Errorf("Parent[source] = %d, want -1", r.Parent[0])
	}
	for v := 1; v < 6; v++ {
		if r.Parent[v] != v-1 {
			t.Errorf("Parent[%d] = %d, want %d", v, r.Parent[v], v-1)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	r := BFS(g, 0)
	if r.Dist[2] != -1 || r.Dist[3] != -1 {
		t.Errorf("unreachable distances = %d, %d, want -1, -1", r.Dist[2], r.Dist[3])
	}
	if len(r.Order) != 2 {
		t.Errorf("len(Order) = %d, want 2", len(r.Order))
	}
}

func TestMultiBFS(t *testing.T) {
	g := Path(7)
	r := MultiBFS(g, []int{0, 6})
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for v, d := range want {
		if r.Dist[v] != d {
			t.Errorf("Dist[%d] = %d, want %d", v, r.Dist[v], d)
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	if !Connected(New(0)) || !Connected(New(1)) {
		t.Error("trivial graphs should be connected")
	}
	if !Connected(Cycle(4)) {
		t.Error("cycle should be connected")
	}
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if Connected(g) {
		t.Error("disconnected graph reported connected")
	}
	label, count := Components(g)
	if count != 3 {
		t.Errorf("Components count = %d, want 3", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] || label[4] == label[0] {
		t.Errorf("component labels %v inconsistent", label)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "single node", g: New(1), want: 0},
		{name: "path 10", g: Path(10), want: 9},
		{name: "cycle 10", g: Cycle(10), want: 5},
		{name: "complete 6", g: Complete(6), want: 1},
		{name: "grid 4x7", g: Grid(4, 7), want: 9},
		{name: "wheel 10", g: Wheel(10), want: 2},
		{name: "star 8", g: Star(8), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Diameter(tt.g)
			if err != nil {
				t.Fatalf("Diameter() error = %v", err)
			}
			if got != tt.want {
				t.Errorf("Diameter() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(2)
	if _, err := Diameter(g); err != ErrDisconnected {
		t.Errorf("Diameter() error = %v, want ErrDisconnected", err)
	}
}

// TestDiameterApproxBounds: the double sweep's e bounds the exact
// diameter as e <= diam <= 2e.
func TestDiameterApproxBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		m := n - 1 + rng.Intn(n)
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		g := RandomConnected(n, m, rng)
		exact, err := Diameter(g)
		if err != nil {
			t.Fatalf("Diameter() error = %v", err)
		}
		if e := g.CSR().DoubleSweep(new(DiameterScratch)); e > exact || 2*e < exact {
			t.Errorf("n=%d m=%d: double sweep bounds [%d,%d] exclude exact %d", n, m, e, 2*e, exact)
		}
	}
}

func TestInducedDiameter(t *testing.T) {
	// Wheel rim without the center: induced diameter of the rim path is
	// large; adding shortcut edges through shared rim chords shrinks it.
	g := Wheel(10)
	rim := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := InducedDiameter(g, rim, nil); got != 4 {
		t.Errorf("rim induced diameter = %d, want 4 (cycle of 9)", got)
	}
	// Nodes {1,3} are non-adjacent on the rim: disconnected without extras.
	if got := InducedDiameter(g, []int{1, 3}, nil); got != -1 {
		t.Errorf("disconnected induced diameter = %d, want -1", got)
	}
	if got := InducedDiameter(g, []int{1, 3}, [][2]int{{1, 3}}); got != 1 {
		t.Errorf("induced diameter with extra edge = %d, want 1", got)
	}
	if got := InducedDiameter(g, nil, nil); got != -1 {
		t.Errorf("empty node set diameter = %d, want -1", got)
	}
	// Extra edge with an endpoint outside the node set is invalid.
	if got := InducedDiameter(g, []int{1, 2}, [][2]int{{1, 5}}); got != -1 {
		t.Errorf("foreign extra edge diameter = %d, want -1", got)
	}
}

func TestDSU(t *testing.T) {
	d := NewDSU(6)
	if d.Sets() != 6 {
		t.Fatalf("Sets() = %d, want 6", d.Sets())
	}
	if !d.Union(0, 1) || !d.Union(2, 3) || !d.Union(0, 3) {
		t.Fatal("fresh unions should report true")
	}
	if d.Union(1, 2) {
		t.Error("redundant union reported true")
	}
	if d.Find(0) != d.Find(2) || d.Find(0) == d.Find(4) {
		t.Error("Find() disagrees with unions")
	}
	if d.Sets() != 3 {
		t.Errorf("Sets() = %d, want 3", d.Sets())
	}
}

func TestKruskalPath(t *testing.T) {
	g := Path(5)
	ids, total := Kruskal(g)
	if len(ids) != 4 || total != 4 {
		t.Errorf("Kruskal on path: %d edges weight %v, want 4 edges weight 4", len(ids), total)
	}
}

func TestKruskalKnown(t *testing.T) {
	// Square with diagonal: 0-1 (1), 1-2 (2), 2-3 (1), 3-0 (5), 0-2 (1.5).
	g := New(4)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(1, 2, 2)
	g.AddWeightedEdge(2, 3, 1)
	g.AddWeightedEdge(3, 0, 5)
	g.AddWeightedEdge(0, 2, 1.5)
	_, total := Kruskal(g)
	if total != 3.5 {
		t.Errorf("Kruskal total = %v, want 3.5", total)
	}
}

func TestKruskalForest(t *testing.T) {
	g := New(4)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(2, 3, 2)
	ids, total := Kruskal(g)
	if len(ids) != 2 || total != 3 {
		t.Errorf("Kruskal forest: %d edges weight %v, want 2 edges weight 3", len(ids), total)
	}
}

func TestStoerWagnerKnownCuts(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want float64
	}{
		{name: "path", g: Path(6), want: 1},
		{name: "cycle", g: Cycle(8), want: 2},
		{name: "complete 5", g: Complete(5), want: 4},
		{name: "grid 3x5", g: Grid(3, 5), want: 2},
		{name: "torus 4x4", g: Torus(4, 4), want: 4},
		{name: "wheel 8", g: Wheel(8), want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := StoerWagner(tt.g)
			if err != nil {
				t.Fatalf("StoerWagner() error = %v", err)
			}
			if got != tt.want {
				t.Errorf("StoerWagner() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStoerWagnerWeighted(t *testing.T) {
	// Two triangles joined by a single light edge.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.AddWeightedEdge(e[0], e[1], 10)
	}
	g.AddWeightedEdge(2, 3, 0.5)
	got, err := StoerWagner(g)
	if err != nil {
		t.Fatalf("StoerWagner() error = %v", err)
	}
	if got != 0.5 {
		t.Errorf("StoerWagner() = %v, want 0.5", got)
	}
}

func TestStoerWagnerErrors(t *testing.T) {
	if got, err := StoerWagner(New(1)); err != nil || got != 0 {
		t.Errorf("StoerWagner(single) = %v, %v; want 0, nil", got, err)
	}
	g := New(3)
	g.AddEdge(0, 1)
	if _, err := StoerWagner(g); err != ErrDisconnected {
		t.Errorf("StoerWagner(disconnected) error = %v, want ErrDisconnected", err)
	}
}

func TestStoerWagnerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(maxM-(n-1)+1)
		g := RandomConnected(n, m, rng)
		got, err := StoerWagner(g)
		if err != nil {
			t.Fatalf("StoerWagner() error = %v", err)
		}
		best := bruteForceMinCut(g)
		if got != best {
			t.Errorf("n=%d m=%d: StoerWagner = %v, brute force = %v", n, m, got, best)
		}
	}
}

func bruteForceMinCut(g *Graph) float64 {
	n := g.NumNodes()
	best := -1.0
	side := make([]bool, n)
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		for v := 0; v < n; v++ {
			side[v] = mask&(1<<uint(v)) != 0
		}
		if w := CutWeight(g, side); best < 0 || w < best {
			best = w
		}
	}
	return best
}

func TestCutWeight(t *testing.T) {
	g := Cycle(4)
	side := []bool{true, true, false, false}
	if got := CutWeight(g, side); got != 2 {
		t.Errorf("CutWeight = %v, want 2", got)
	}
}

// Property: BFS distances satisfy the edge relaxation inequality
// |dist(u) - dist(v)| <= 1 for every edge {u,v} in a connected graph.
func TestBFSDistancesAreMetricQuick(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%60
		maxM := n * (n - 1) / 2
		m := n - 1 + int(extraRaw)%n
		if m > maxM {
			m = maxM
		}
		g := RandomConnected(n, m, rng)
		r := BFS(g, rng.Intn(n))
		for _, e := range g.Edges() {
			du, dv := r.Dist[e.U], r.Dist[e.V]
			if du < 0 || dv < 0 {
				return false
			}
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: RandomConnected produces a connected simple graph with the
// requested node and edge counts.
func TestRandomConnectedQuick(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%50
		maxM := n * (n - 1) / 2
		m := n - 1 + int(extraRaw)%(n+1)
		if m > maxM {
			m = maxM
		}
		g := RandomConnected(n, m, rng)
		if g.NumNodes() != n || g.NumEdges() != m {
			return false
		}
		if !Connected(g) {
			return false
		}
		seen := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				return false
			}
			seen[[2]int{u, v}] = true
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
