package cli

import (
	"fmt"
	"reflect"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// goldenRoots are the roots the root search chooses on ParseGraph's
// canonical form, for the nine families at the sizes the benchmark, CI
// and the tests use, at seeds 0 and 1 (only ktree and random depend on the
// seed). A change that moves one moves every tree, shortcut and stored
// record built on that graph. The search follows adjacency order, so the
// random rows moved when ParseGraph started returning canonical edge
// order; none of the new roots has a larger eccentricity than the old.
var goldenRoots = []struct {
	spec string
	seed int64
	root int
}{
	{"grid:4x4", 0, 5},
	{"grid:4x4", 1, 5},
	{"grid:5x5", 0, 12},
	{"grid:5x5", 1, 12},
	{"grid:6x6", 0, 14},
	{"grid:6x6", 1, 14},
	{"grid:6x7", 0, 17},
	{"grid:6x7", 1, 17},
	{"grid:5x8", 0, 19},
	{"grid:5x8", 1, 19},
	{"grid:8x8", 0, 27},
	{"grid:8x8", 1, 27},
	{"grid:10x10", 0, 44},
	{"grid:10x10", 1, 44},
	{"grid:12x12", 0, 65},
	{"grid:12x12", 1, 65},
	{"grid:16x16", 0, 119},
	{"grid:16x16", 1, 119},
	{"grid:18x22", 0, 186},
	{"grid:18x22", 1, 186},
	{"grid:24x24", 0, 275},
	{"grid:24x24", 1, 275},
	{"grid:32x32", 0, 495},
	{"grid:32x32", 1, 495},
	{"grid:48x48", 0, 1127},
	{"grid:48x48", 1, 1127},
	{"grid:64x64", 0, 2015},
	{"grid:64x64", 1, 2015},
	{"torus:4x4", 0, 0},
	{"torus:4x4", 1, 0},
	{"torus:5x5", 0, 0},
	{"torus:5x5", 1, 0},
	{"torus:6x6", 0, 0},
	{"torus:6x6", 1, 0},
	{"torus:9x9", 0, 0},
	{"torus:9x9", 1, 0},
	{"torus:12x13", 0, 0},
	{"torus:12x13", 1, 0},
	{"torus:16x16", 0, 0},
	{"torus:16x16", 1, 0},
	{"torus:32x32", 0, 0},
	{"torus:32x32", 1, 0},
	{"wheel:4", 0, 0},
	{"wheel:4", 1, 0},
	{"wheel:12", 0, 0},
	{"wheel:12", 1, 0},
	{"wheel:20", 0, 0},
	{"wheel:20", 1, 0},
	{"wheel:30", 0, 0},
	{"wheel:30", 1, 0},
	{"wheel:40", 0, 0},
	{"wheel:40", 1, 0},
	{"wheel:60", 0, 0},
	{"wheel:60", 1, 0},
	{"wheel:200", 0, 0},
	{"wheel:200", 1, 0},
	{"wheel:300", 0, 0},
	{"wheel:300", 1, 0},
	{"cycle:3", 0, 0},
	{"cycle:3", 1, 0},
	{"cycle:9", 0, 0},
	{"cycle:9", 1, 0},
	{"cycle:12", 0, 0},
	{"cycle:12", 1, 0},
	{"cycle:20", 0, 0},
	{"cycle:20", 1, 0},
	{"cycle:30", 0, 0},
	{"cycle:30", 1, 0},
	{"cycle:50", 0, 0},
	{"cycle:50", 1, 0},
	{"path:1", 0, 0},
	{"path:1", 1, 0},
	{"path:4", 0, 1},
	{"path:4", 1, 1},
	{"path:7", 0, 3},
	{"path:7", 1, 3},
	{"path:17", 0, 8},
	{"path:17", 1, 8},
	{"path:40", 0, 19},
	{"path:40", 1, 19},
	{"complete:1", 0, 0},
	{"complete:1", 1, 0},
	{"complete:5", 0, 0},
	{"complete:5", 1, 0},
	{"complete:8", 0, 0},
	{"complete:8", 1, 0},
	{"complete:12", 0, 0},
	{"complete:12", 1, 0},
	{"ktree:30,3", 0, 0},
	{"ktree:30,3", 1, 0},
	{"ktree:40,3", 0, 0},
	{"ktree:40,3", 1, 0},
	{"ktree:60,3", 0, 0},
	{"ktree:60,3", 1, 0},
	{"ktree:150,3", 0, 0},
	{"ktree:150,3", 1, 4},
	{"ktree:300,4", 0, 15},
	{"ktree:300,4", 1, 0},
	{"ktree:600,4", 0, 0},
	{"ktree:600,4", 1, 0},
	{"random:20,40", 0, 16},
	{"random:20,40", 1, 0},
	{"random:50,120", 0, 20},
	{"random:50,120", 1, 0},
	{"random:120,300", 0, 74},
	{"random:120,300", 1, 77},
	{"random:300,700", 0, 93},
	{"random:300,700", 1, 244},
	{"random:600,2400", 0, 357},
	{"random:600,2400", 1, 317},
	{"lb:5,12", 0, 2},
	{"lb:5,12", 1, 2},
	{"lb:6,16", 0, 3},
	{"lb:6,16", 1, 3},
}

func TestGoldenRoots(t *testing.T) {
	for _, gr := range goldenRoots {
		g, _, err := ParseGraph(gr.spec, gr.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", gr.spec, gr.seed, err)
		}
		if got := graph.ChooseRoot(g); got != gr.root {
			t.Errorf("%s seed %d: root %d, golden %d", gr.spec, gr.seed, got, gr.root)
		}
	}
}

// Builds that read the graph's memoized tree are identical to builds
// handed a tree rooted at the golden root.
func TestMemoBuildsMatchGoldenTree(t *testing.T) {
	for _, gr := range goldenRoots {
		if gr.seed != 0 {
			continue
		}
		g, _, err := ParseGraph(gr.spec, gr.seed)
		if err != nil {
			t.Fatal(err)
		}
		k := min(1+g.NumNodes()/8, 32)
		p, err := ParsePartition(g, fmt.Sprintf("blobs:%d", k), 1)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := tree.FromBFS(g, gr.root)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := shortcut.NewBuilder().Build(g, p, shortcut.Options{})
		if err != nil {
			t.Fatalf("%s: %v", gr.spec, err)
		}
		want, err := shortcut.NewBuilder().Build(g, p, shortcut.Options{Tree: golden})
		if err != nil {
			t.Fatalf("%s: %v", gr.spec, err)
		}
		mt, wt := memo.Shortcut.Tree, want.Shortcut.Tree
		if memo.Delta != want.Delta || memo.Iterations != want.Iterations || memo.TreeDepth != want.TreeDepth ||
			mt.Root != wt.Root || !reflect.DeepEqual(mt.Parent, wt.Parent) ||
			!reflect.DeepEqual(mt.ParentEdge, wt.ParentEdge) || !reflect.DeepEqual(mt.Order, wt.Order) ||
			!reflect.DeepEqual(memo.Shortcut.Covered, want.Shortcut.Covered) ||
			!reflect.DeepEqual(memo.Shortcut.H, want.Shortcut.H) {
			t.Errorf("%s: memoized-tree build differs from the golden-tree build", gr.spec)
		}
	}
}

// The experiment families, written as specs, stay under the ingest
// limits; TestGoldenRoots parses the sizes the benchmark, CI and the tests
// use.
func TestExperimentSizesParse(t *testing.T) {
	for _, spec := range []string{
		"wheel:8192", "wheel:512", "torus:18x18", "ktree:240,8", "ktree:300,2",
		"random:220,3520", "lb:6,24", "cycle:240", "grid:20x20",
	} {
		if _, _, err := ParseGraph(spec, 1); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}
