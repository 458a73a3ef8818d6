package minor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locshort/internal/graph"
)

func TestDensityEmpty(t *testing.T) {
	var m Mapping
	if m.Density() != 0 {
		t.Errorf("empty mapping density = %v, want 0", m.Density())
	}
}

func TestValidateRejects(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	tests := []struct {
		name string
		m    Mapping
	}{
		{name: "empty branch set", m: Mapping{BranchSets: [][]int{{0}, {}}}},
		{name: "overlapping branch sets", m: Mapping{BranchSets: [][]int{{0, 1}, {1, 2}}}},
		{name: "disconnected branch set", m: Mapping{BranchSets: [][]int{{0, 2}}}},
		{name: "out of range node", m: Mapping{BranchSets: [][]int{{9}}}},
		{
			name: "unrealized edge",
			m:    Mapping{BranchSets: [][]int{{0}, {3}}, Edges: [][2]int{{0, 1}}},
		},
		{
			name: "self loop edge",
			m:    Mapping{BranchSets: [][]int{{0}}, Edges: [][2]int{{0, 0}}},
		},
		{
			name: "duplicate edge",
			m:    Mapping{BranchSets: [][]int{{0}, {1}}, Edges: [][2]int{{0, 1}, {1, 0}}},
		},
		{
			name: "edge to unknown minor node",
			m:    Mapping{BranchSets: [][]int{{0}}, Edges: [][2]int{{0, 4}}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(g); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestValidateAcceptsContraction(t *testing.T) {
	// Contract the 6-cycle into a triangle.
	g := graph.Cycle(6)
	m := Mapping{
		BranchSets: [][]int{{0, 1}, {2, 3}, {4, 5}},
		Edges:      [][2]int{{0, 1}, {1, 2}, {2, 0}},
	}
	if err := m.Validate(g); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
	if m.Density() != 1 {
		t.Errorf("Density = %v, want 1", m.Density())
	}
}

func TestGreedyDenseMinorOnComplete(t *testing.T) {
	// delta(K_n) = (n-1)/2 and the identity is the densest minor; greedy
	// must find exactly that (contractions only lose edges in K_n).
	g := graph.Complete(8)
	m := GreedyDenseMinor(g, rand.New(rand.NewSource(1)))
	if err := m.Validate(g); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if got, want := m.Density(), CompleteDensity(8); got != want {
		t.Errorf("Density = %v, want %v", got, want)
	}
}

func TestGreedyDenseMinorRespectsPlanarBound(t *testing.T) {
	// Planar graphs have delta(G) < 3; the greedy witness can never exceed
	// an upper bound on delta.
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{name: "grid", g: graph.Grid(7, 7)},
		{name: "wheel", g: graph.Wheel(20)},
		{name: "cycle", g: graph.Cycle(15)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m := GreedyDenseMinor(tt.g, rand.New(rand.NewSource(2)))
			if err := m.Validate(tt.g); err != nil {
				t.Fatalf("Validate = %v", err)
			}
			if m.Density() >= PlanarDensityBound {
				t.Errorf("greedy density %v >= planar bound 3", m.Density())
			}
		})
	}
}

func TestGreedyDenseMinorFindsDenseCore(t *testing.T) {
	// A K_6 attached to a long path: the dense core must be found, so the
	// witness density must be at least delta(K_6) = 2.5 even though the
	// whole graph's edge density is much lower.
	g := graph.New(26)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	for v := 5; v+1 < 26; v++ {
		g.AddEdge(v, v+1)
	}
	m := GreedyDenseMinor(g, rand.New(rand.NewSource(3)))
	if err := m.Validate(g); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if m.Density() < 2.5 {
		t.Errorf("greedy density %v < 2.5 (missed the K_6 core)", m.Density())
	}
}

func TestGreedyDenseMinorKTreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{2, 3, 4} {
		g := graph.KTree(30, k, rng)
		m := GreedyDenseMinor(g, rng)
		if err := m.Validate(g); err != nil {
			t.Fatalf("k=%d: Validate = %v", k, err)
		}
		if m.Density() > TreewidthDensityBound(k) {
			t.Errorf("k=%d: greedy density %v exceeds treewidth bound %d", k, m.Density(), k)
		}
		// The k-tree contains K_{k+1}, so density >= k/2 is achievable.
		if m.Density() < float64(k)/2 {
			t.Errorf("k=%d: greedy density %v < k/2 (missed the seed clique)", k, m.Density())
		}
	}
}

func TestGreedyDenseMinorTrivialGraphs(t *testing.T) {
	if m := GreedyDenseMinor(graph.New(0), rand.New(rand.NewSource(1))); m.NumNodes() != 0 {
		t.Errorf("empty graph minor has %d nodes", m.NumNodes())
	}
	m := GreedyDenseMinor(graph.New(3), rand.New(rand.NewSource(1)))
	if m.NumEdges() != 0 {
		t.Errorf("edgeless graph minor has %d edges", m.NumEdges())
	}
}

func TestGenusDensityBound(t *testing.T) {
	if got := GenusDensityBound(0); got != 3 {
		t.Errorf("GenusDensityBound(0) = %v, want 3 (planar)", got)
	}
	// Monotone and Theta(sqrt(g)).
	prev := 0.0
	for g := 0; g <= 64; g += 8 {
		b := GenusDensityBound(g)
		if b <= prev {
			t.Errorf("GenusDensityBound not increasing at g=%d", g)
		}
		prev = b
	}
	if b := GenusDensityBound(100); b > 3+math.Sqrt(24*100) {
		t.Errorf("GenusDensityBound(100) = %v too large", b)
	}
}

func TestGenusDensityBoundSatisfiesFixedPoint(t *testing.T) {
	// The bound d solves d = 3 + 6g/d.
	for _, g := range []int{1, 2, 5, 10} {
		d := GenusDensityBound(g)
		if diff := d - (3 + 6*float64(g)/d); math.Abs(diff) > 1e-9 {
			t.Errorf("g=%d: fixed point residual %v", g, diff)
		}
	}
}

func TestTorusDensityWithinGenusBound(t *testing.T) {
	g := graph.Torus(6, 6)
	m := GreedyDenseMinor(g, rand.New(rand.NewSource(5)))
	if err := m.Validate(g); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if bound := GenusDensityBound(1); m.Density() > bound {
		t.Errorf("torus greedy density %v exceeds genus-1 bound %v", m.Density(), bound)
	}
}

// Property: the greedy witness on random connected graphs is always a valid
// minor, and its density is at least the graph's own density m/n (the
// identity minor is a candidate).
func TestGreedyDenseMinorQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%25
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(n)
		if m > maxM {
			m = maxM
		}
		g := graph.RandomConnected(n, m, rng)
		w := GreedyDenseMinor(g, rng)
		if err := w.Validate(g); err != nil {
			return false
		}
		return w.Density() >= float64(m)/float64(n)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
