package bench

import (
	"testing"

	"locshort/internal/graph"
)

// The roots the search chose for the experiment graphs before it was
// memoized on the graph, at seed 1 (the seed of the EXPERIMENTS tables):
// the standard families at quick and full size, and the graphs E10, A1
// and A4 root directly.
func TestGoldenRootsExperiments(t *testing.T) {
	type golden struct {
		name string
		root int
	}
	for _, sz := range []struct {
		quick bool
		want  []golden
	}{
		{true, []golden{{"grid 10x10", 44}, {"torus 8x8", 0}, {"2-tree n=80", 0}, {"4-tree n=80", 0},
			{"wheel n=60", 0}, {"LB(5,12) rows", 2}}},
		{false, []golden{{"grid 24x24", 275}, {"torus 16x16", 0}, {"2-tree n=300", 0}, {"4-tree n=300", 0},
			{"wheel n=200", 0}, {"LB(6,24) rows", 4}}},
	} {
		fams, err := standardFamilies(Config{Quick: sz.quick, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(fams) != len(sz.want) {
			t.Fatalf("quick=%v: %d families, %d golden roots", sz.quick, len(fams), len(sz.want))
		}
		for i, f := range fams {
			if w := sz.want[i]; f.name != w.name || graph.ChooseRoot(f.g) != w.root {
				t.Errorf("quick=%v %s: root %d, golden %s root %d", sz.quick, f.name, graph.ChooseRoot(f.g), w.name, w.root)
			}
		}
	}
	lb, err := graph.LowerBound(6, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{"LB(6,24)", lb.G, 4},
		{"grid 10x10", graph.Grid(10, 10), 44},
		{"grid 20x20", graph.Grid(20, 20), 189},
		{"cycle n=240", graph.Cycle(240), 0},
	} {
		if got := graph.ChooseRoot(tt.g); got != tt.root {
			t.Errorf("%s: root %d, golden %d", tt.name, got, tt.root)
		}
	}
}
