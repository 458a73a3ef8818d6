package dist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

func buildRouting(t *testing.T, g *graph.Graph, p *partition.Partition) *PARouting {
	t.Helper()
	res, err := shortcut.Build(g, p, shortcut.Options{})
	if err != nil {
		t.Fatalf("Build = %v", err)
	}
	r, err := NewPARouting(res.Shortcut)
	if err != nil {
		t.Fatalf("NewPARouting = %v", err)
	}
	return r
}

func TestBuildBFSTree(t *testing.T) {
	g := graph.Grid(9, 9)
	res, err := BuildBFSTree(g, 4*g.NumNodes())
	if err != nil {
		t.Fatalf("BuildBFSTree = %v", err)
	}
	ecc, _ := graph.Eccentricity(g, res.Root)
	if got := res.Tree.MaxDepth(); got != ecc {
		t.Errorf("tree depth %d, want eccentricity %d", got, ecc)
	}
	if res.Rounds.Measured != ecc+1 {
		t.Errorf("BFS wave took %d rounds, want %d", res.Rounds.Measured, ecc+1)
	}
	// Every non-root node's parent edge exists and leads one level up.
	for v := 0; v < g.NumNodes(); v++ {
		if v == res.Root {
			continue
		}
		p := res.Tree.Parent[v]
		if res.Tree.Depth[v] != res.Tree.Depth[p]+1 {
			t.Fatalf("node %d depth %d, parent %d depth %d", v, res.Tree.Depth[v], p, res.Tree.Depth[p])
		}
		if g.Other(res.Tree.ParentEdge[v], v) != p {
			t.Fatalf("node %d parent edge does not lead to parent", v)
		}
	}
}

func TestPartwiseAggregateAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid 10x10", graph.Grid(10, 10), 10},
		{"wheel 64", graph.Wheel(64), 0}, // 0: rim/hub partition
		{"torus 8x8", graph.Torus(8, 8), 12},
	} {
		var p *partition.Partition
		var err error
		if tc.k == 0 {
			p, err = partition.WheelRim(tc.g)
		} else {
			p, err = partition.BFSBlobs(tc.g, tc.k, rng)
		}
		if err != nil {
			t.Fatalf("%s: partition: %v", tc.name, err)
		}
		r := buildRouting(t, tc.g, p)
		values := make([]Payload, tc.g.NumNodes())
		for v := range values {
			values[v] = Payload{int64(rng.Intn(1000)), int64(v), int64(rng.Intn(7))}
		}
		for _, op := range []Op{OpSum, OpMin, OpMax} {
			want := referenceAggregate(p, op, values)
			for _, randomized := range []bool{true, false} {
				pa, err := PartwiseAggregate(tc.g, r, op, values, 5, randomized, 64*tc.g.NumNodes()+4096)
				if err != nil {
					t.Fatalf("%s op %d randomized %v: %v", tc.name, op, randomized, err)
				}
				if !reflect.DeepEqual(pa.PartResult, want) {
					t.Errorf("%s op %d randomized %v: PartResult = %v, want %v",
						tc.name, op, randomized, pa.PartResult, want)
				}
				// Every node learned its own part's aggregate.
				for v := 0; v < tc.g.NumNodes(); v++ {
					if i := p.PartOf[v]; i >= 0 && pa.NodeResult[v] != want[i] {
						t.Errorf("%s op %d: node %d result %v, want %v", tc.name, op, v, pa.NodeResult[v], want[i])
					}
				}
			}
		}
	}
}

func TestConstructProducesValidFullShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid 12x12", graph.Grid(12, 12), 12},
		{"ktree", graph.KTree(120, 3, rng), 10},
		{"wheel 96", graph.Wheel(96), 0},
	} {
		var p *partition.Partition
		var err error
		if tc.k == 0 {
			p, err = partition.WheelRim(tc.g)
		} else {
			p, err = partition.BFSBlobs(tc.g, tc.k, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Randomized, Deterministic} {
			res, err := Construct(tc.g, p, ConstructOptions{Variant: v, Seed: 2})
			if err != nil {
				t.Fatalf("%s variant %d: Construct = %v", tc.name, v, err)
			}
			if err := res.Shortcut.Validate(); err != nil {
				t.Fatalf("%s variant %d: invalid shortcut: %v", tc.name, v, err)
			}
			if got := res.Shortcut.CoveredCount(); got != p.NumParts() {
				t.Errorf("%s variant %d: covered %d/%d parts", tc.name, v, got, p.NumParts())
			}
			q := shortcut.Measure(res.Shortcut)
			if bound := res.CongestionThreshold * res.Iterations; q.Congestion > bound {
				t.Errorf("%s variant %d: congestion %d above c·iters = %d", tc.name, v, q.Congestion, bound)
			}
			if res.Routing == nil || res.Tree == nil {
				t.Fatalf("%s variant %d: missing routing/tree", tc.name, v)
			}
			if res.Rounds.Measured <= 0 || res.Rounds.Charged <= 0 {
				t.Errorf("%s variant %d: degenerate round breakdown %+v", tc.name, v, res.Rounds)
			}
		}
	}
}

// TestConstructDeterministicVariantIsDeterministic reruns the Deterministic
// variant under a fixed seed and demands bit-identical outcomes.
func TestConstructDeterministicVariantIsDeterministic(t *testing.T) {
	g := graph.Grid(10, 10)
	p, err := partition.BFSBlobs(g, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	opts := ConstructOptions{Variant: Deterministic, Seed: 31}
	a, err := Construct(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Shortcut.H, b.Shortcut.H) {
		t.Error("Deterministic variant produced different H-sets on rerun")
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Delta != b.Delta || a.Iterations != b.Iterations {
		t.Errorf("Deterministic variant cost differs on rerun: %+v/%d vs %+v/%d",
			a.Rounds, a.Messages, b.Rounds, b.Messages)
	}
}

func TestMSTMatchesKruskalAllProviders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 7x7", graph.Grid(7, 7)},
		{"wheel 80", graph.Wheel(80)},
		{"random", graph.RandomConnected(90, 180, rng)},
	} {
		graph.RandomizeWeights(tc.g, rng)
		_, want := graph.Kruskal(tc.g)
		for _, pr := range []ProviderKind{ProviderCentral, ProviderCentralAdaptive, ProviderTrivial, ProviderDistributed} {
			res, err := MST(tc.g, MSTOptions{Provider: pr, Seed: 5})
			if err != nil {
				t.Fatalf("%s provider %d: MST = %v", tc.name, pr, err)
			}
			if d := res.Weight - want; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s provider %d: weight %v, want %v", tc.name, pr, res.Weight, want)
			}
			if len(res.EdgeIDs) != tc.g.NumNodes()-1 {
				t.Errorf("%s provider %d: %d edges, want %d", tc.name, pr, len(res.EdgeIDs), tc.g.NumNodes()-1)
			}
			if res.Rounds.Total() <= 0 {
				t.Errorf("%s provider %d: no rounds accounted", tc.name, pr)
			}
		}
	}
}

// TestMSTUnitWeightsTieBreak checks the edge-ID tie-break against Kruskal
// on an all-ties instance.
func TestMSTUnitWeightsTieBreak(t *testing.T) {
	g := graph.Torus(6, 6)
	ids, want := graph.Kruskal(g)
	res, err := MST(g, MSTOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != want {
		t.Errorf("weight %v, want %v", res.Weight, want)
	}
	wantIDs := append([]int(nil), ids...)
	sort.Ints(wantIDs)
	if !reflect.DeepEqual(res.EdgeIDs, wantIDs) {
		t.Errorf("chosen edges %v, want Kruskal's %v", res.EdgeIDs, wantIDs)
	}
}

// TestMSTNegativeWeights exercises the sortable-double weight encoding on
// weights the generators never produce.
func TestMSTNegativeWeights(t *testing.T) {
	g := graph.New(3)
	g.AddWeightedEdge(0, 1, -1)
	g.AddWeightedEdge(0, 1, -2) // parallel, cheaper: must win the tie for {0,1}
	g.AddWeightedEdge(1, 2, -0.5)
	g.AddWeightedEdge(0, 2, 3)
	_, want := graph.Kruskal(g)
	res, err := MST(g, MSTOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != want {
		t.Errorf("weight %v, want %v", res.Weight, want)
	}
	if !reflect.DeepEqual(res.EdgeIDs, []int{1, 2}) {
		t.Errorf("chosen edges %v, want [1 2]", res.EdgeIDs)
	}
}

func TestEncodeWeightOrderPreserving(t *testing.T) {
	ws := []float64{-1e9, -2, -1, -0.5, 0, 0.25, 1, 3, 1e9}
	for i, a := range ws {
		if decodeWeight(encodeWeight(a)) != a {
			t.Errorf("roundtrip broke %v", a)
		}
		for _, b := range ws[i+1:] {
			if encodeWeight(a) >= encodeWeight(b) {
				t.Errorf("order broke: enc(%v) >= enc(%v)", a, b)
			}
		}
	}
}

// TestMSTMaxPhasesTooSmall demands an error, not a silent partial forest.
func TestMSTMaxPhasesTooSmall(t *testing.T) {
	g := graph.Path(64)
	graph.RandomizeWeights(g, rand.New(rand.NewSource(8)))
	if _, err := MST(g, MSTOptions{Seed: 1, MaxPhases: 1}); err == nil {
		t.Fatal("MST with MaxPhases 1 on a 64-path returned no error")
	}
}

func TestMinCutMatchesStoerWagner(t *testing.T) {
	twoCliques := func() *graph.Graph {
		g := graph.New(12)
		for base := 0; base < 12; base += 6 {
			for u := base; u < base+6; u++ {
				for v := u + 1; v < base+6; v++ {
					g.AddEdge(u, v)
				}
			}
		}
		g.AddEdge(2, 8)
		return g
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle 28", graph.Cycle(28)},
		{"grid 6x6", graph.Grid(6, 6)},
		{"torus 5x5", graph.Torus(5, 5)},
		{"two cliques", twoCliques()},
		{"star 16", graph.Star(16)},
	} {
		want, err := graph.StoerWagner(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinCut(tc.g, MinCutOptions{Seed: 9})
		if err != nil {
			t.Fatalf("%s: MinCut = %v", tc.name, err)
		}
		if res.Value != int64(want) {
			t.Errorf("%s: MinCut %d, want %v", tc.name, res.Value, want)
		}
		if res.Side != nil {
			if got := graph.CutWeight(tc.g, res.Side); got != float64(res.Value) {
				t.Errorf("%s: Side cut weight %v disagrees with Value %d", tc.name, got, res.Value)
			}
		}
	}
}

// TestOneRespectingCutsBruteForce cross-checks the LCA formula against a
// direct count.
func TestOneRespectingCutsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomConnected(40, 90, rng)
	bfs, err := buildBFSTreeFrom(g, 0, 4*g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	tr := bfs.Tree
	cuts := OneRespectingCuts(g, tr)
	iv := tr.EulerIntervals()
	for v := 0; v < g.NumNodes(); v++ {
		if v == tr.Root {
			continue
		}
		want := int64(0)
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(id)
			if iv.Ancestor(v, e.U) != iv.Ancestor(v, e.V) {
				want++
			}
		}
		if cuts[v] != want {
			t.Fatalf("node %d: cut %d, want %d", v, cuts[v], want)
		}
	}
}

func TestBridgesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"caterpillar", graph.Caterpillar(6, 3)},
		{"grid 8x8", graph.Grid(8, 8)},
		{"random sparse", graph.RandomConnected(80, 95, rng)},
	} {
		res, err := Bridges(tc.g, 0)
		if err != nil {
			t.Fatalf("%s: Bridges = %v", tc.name, err)
		}
		want := graph.Bridges(tc.g)
		wantSorted := append([]int(nil), want...)
		sort.Ints(wantSorted)
		if !reflect.DeepEqual(res.EdgeIDs, wantSorted) && !(len(res.EdgeIDs) == 0 && len(wantSorted) == 0) {
			t.Errorf("%s: bridges %v, want %v", tc.name, res.EdgeIDs, wantSorted)
		}
	}
}

func TestSubgraphComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Torus(7, 7)
	in := make([]bool, g.NumEdges())
	for i := range in {
		in[i] = rng.Intn(2) == 0
	}
	res, err := SubgraphComponents(g, in, MSTOptions{Seed: 2})
	if err != nil {
		t.Fatalf("SubgraphComponents = %v", err)
	}
	want := ReferenceSubgraphComponents(g, in)
	if !SameComponents(res.Label, want) {
		t.Errorf("labels %v\n  disagree with reference %v", res.Label, want)
	}
	wantCount := 0
	for _, l := range want {
		if l >= wantCount {
			wantCount = l + 1
		}
	}
	if res.Components != wantCount {
		t.Errorf("Components = %d, want %d", res.Components, wantCount)
	}
}

func TestSameComponents(t *testing.T) {
	if !SameComponents([]int{0, 0, 1}, []int{5, 5, 2}) {
		t.Error("renamed labeling rejected")
	}
	if SameComponents([]int{0, 0, 1}, []int{0, 1, 1}) {
		t.Error("different partition accepted")
	}
	if SameComponents([]int{0}, []int{0, 0}) {
		t.Error("length mismatch accepted")
	}
}
