package shortcut_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// measureAllPairs is the reference measurement: every augmented subgraph
// G[P_i]+H_i built as a graph.Graph, its exact diameter from one BFS per
// node (double sweep above 1500 nodes), its blocks from graph.DSU.
func measureAllPairs(s *shortcut.Shortcut) shortcut.Quality {
	q := shortcut.Quality{DilationExact: true, CoveredParts: s.CoveredCount()}
	for _, load := range shortcut.EdgeLoads(s) {
		q.Congestion = max(q.Congestion, load)
	}
	for i, h := range s.H {
		if !s.Covered[i] {
			continue
		}
		idx := make(map[int]int)
		var nodes []int
		add := func(v int) {
			if _, ok := idx[v]; !ok {
				idx[v] = 0
				nodes = append(nodes, v)
			}
		}
		for _, v := range s.Parts.Parts[i] {
			add(v)
		}
		for _, id := range h {
			add(s.G.Edge(id).U)
			add(s.G.Edge(id).V)
		}
		sort.Ints(nodes)
		for j, v := range nodes {
			idx[v] = j
		}
		sub := graph.New(len(nodes))
		for _, v := range s.Parts.Parts[i] {
			for _, a := range s.G.Neighbors(v) {
				if s.Parts.PartOf[a.To] == i && v < a.To {
					sub.AddEdge(idx[v], idx[a.To])
				}
			}
		}
		blocks := graph.NewDSU(len(nodes))
		for _, id := range h {
			e := s.G.Edge(id)
			sub.AddEdge(idx[e.U], idx[e.V])
			blocks.Union(idx[e.U], idx[e.V])
		}
		d := -1
		if graph.Connected(sub) {
			if len(nodes) <= 1500 {
				d = 0
				for v := 0; v < len(nodes); v++ {
					ecc, _ := graph.Eccentricity(sub, v)
					d = max(d, ecc)
				}
			} else {
				_, far := graph.Eccentricity(sub, 0)
				ecc, _ := graph.Eccentricity(sub, far)
				d = 2 * ecc
			}
		}
		if len(nodes) > 1500 {
			q.DilationExact = false
		}
		if d < 0 {
			d = s.G.NumNodes() + 1
		}
		q.Dilation = max(q.Dilation, d)
		q.MaxBlocks = max(q.MaxBlocks, blocks.Sets())
	}
	return q
}

// randomShortcut gives every part a random edge subset of G, so augmented
// subgraphs are often disconnected and H_i reaches far outside P_i.
func randomShortcut(g *graph.Graph, p *partition.Partition, rng *rand.Rand) *shortcut.Shortcut {
	s := shortcut.NewEmpty(g, p)
	for i := range s.H {
		for id := 0; id < g.NumEdges(); id++ {
			if rng.Intn(8) == 0 {
				s.H[i] = append(s.H[i], id)
			}
		}
		s.Covered[i] = rng.Intn(5) != 0
	}
	return s
}

func checkMeasure(t *testing.T, name string, s *shortcut.Shortcut) {
	t.Helper()
	if got, want := shortcut.Measure(s), measureAllPairs(s); got != want {
		t.Errorf("%s: Measure = %+v, all-pairs reference = %+v", name, got, want)
	}
}

func TestMeasureMatchesAllPairs(t *testing.T) {
	cases := []struct{ graph, parts string }{
		{"grid:18x22", "blobs:12"},
		{"grid:18x22", "rows:18x22"},
		{"grid:9x9", "singletons"},
		{"torus:12x13", "blobs:10"},
		{"wheel:60", "rim"},
		{"wheel:60", "blobs:6"},
		{"cycle:50", "blobs:5"},
		{"path:40", "blobs:4"},
		{"complete:12", "blobs:3"},
		{"ktree:150,3", "blobs:12"},
		{"random:120,300", "blobs:10"},
		{"lb:6,16", "blobs:8"},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s %s seed %d", c.graph, c.parts, seed)
			g, _, err := cli.ParseGraph(c.graph, seed)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cli.ParsePartition(g, c.parts, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := shortcut.Build(g, p, shortcut.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkMeasure(t, name+" Build", res.Shortcut)
			checkMeasure(t, name+" empty", shortcut.NewEmpty(g, p))
			triv, err := shortcut.Trivial(g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkMeasure(t, name+" Trivial", triv)
			checkMeasure(t, name+" random H", randomShortcut(g, p, rand.New(rand.NewSource(seed))))
		}
	}
}

func TestMeasureMatchesAllPairsLargeAndDisconnected(t *testing.T) {
	// A part over the exact-diameter limit: the double-sweep bound, the
	// same value as the reference sweep, and DilationExact == false.
	g := graph.Wheel(2000)
	p, err := partition.WheelRim(g)
	if err != nil {
		t.Fatal(err)
	}
	triv, err := shortcut.Trivial(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q := shortcut.Measure(triv); q.DilationExact {
		t.Error("DilationExact = true for a 2000-node augmented subgraph")
	}
	checkMeasure(t, "wheel:2000 rim Trivial", triv)
	grid := graph.Grid(40, 40)
	whole, err := partition.New(grid, [][]int{rangeNodes(grid.NumNodes())})
	if err != nil {
		t.Fatal(err)
	}
	checkMeasure(t, "grid:40x40 one part", shortcut.NewEmpty(grid, whole))

	// An H-edge island away from its part: the n+1 sentinel.
	path := graph.Path(5)
	pp, err := partition.New(path, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	island := &shortcut.Shortcut{G: path, Parts: pp, H: [][]int{{3}}, Covered: []bool{true}}
	if q := shortcut.Measure(island); q.Dilation != path.NumNodes()+1 {
		t.Errorf("island dilation = %d, want sentinel %d", q.Dilation, path.NumNodes()+1)
	}
	checkMeasure(t, "path:5 island", island)
}

func rangeNodes(n int) []int {
	nodes := make([]int, n)
	for v := range nodes {
		nodes[v] = v
	}
	return nodes
}

// Measure's pooled measurers pass between goroutines and between graphs
// of different sizes; concurrent calls must agree with sequential ones.
func TestMeasureConcurrent(t *testing.T) {
	var shortcuts []*shortcut.Shortcut
	for _, spec := range []string{"grid:24x24", "torus:9x9", "wheel:300", "path:7"} {
		g, _, err := cli.ParseGraph(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cli.ParsePartition(g, "blobs:5", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := shortcut.Build(g, p, shortcut.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shortcuts = append(shortcuts, res.Shortcut)
	}
	want := make([]shortcut.Quality, len(shortcuts))
	for i, s := range shortcuts {
		want[i] = shortcut.Measure(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (w + r) % len(shortcuts)
				if got := shortcut.Measure(shortcuts[i]); got != want[i] {
					t.Errorf("worker %d: Measure = %+v, want %+v", w, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
