package tree_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/tree"
)

// fromParentsBuckets is FromParents as it was before Depth and Order
// moved into one array: a fresh path slice per upward walk and one
// growing slice per depth bucket. It is the oracle for the Depth, Order
// and errors the single-array version must reproduce exactly.
func fromParentsBuckets(root int, parent []int) (depth, order []int, err error) {
	n := len(parent)
	if root < 0 || root >= n || parent[root] != -1 {
		return nil, nil, fmt.Errorf("tree: invalid root %d", root)
	}
	depth = make([]int, n)
	for v := range depth {
		depth[v] = -1
	}
	depth[root] = 0
	for v := 0; v < n; v++ {
		if depth[v] >= 0 {
			continue
		}
		path := []int{}
		u := v
		for depth[u] < 0 {
			path = append(path, u)
			u = parent[u]
			if u < 0 || u >= n {
				return nil, nil, fmt.Errorf("tree: node %d escapes the tree", v)
			}
			if len(path) > n {
				return nil, nil, fmt.Errorf("tree: cycle through node %d", v)
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
	buckets := make([][]int, maxDepth+1)
	for v, d := range depth {
		buckets[d] = append(buckets[d], v)
	}
	order = make([]int, 0, n)
	for _, b := range buckets {
		order = append(order, b...)
	}
	return depth, order, nil
}

// checkAgainstBuckets requires FromParents and the oracle to agree on
// (root, parent): the same error text, or identical Depth and Order.
func checkAgainstBuckets(t *testing.T, name string, root int, parent, parentEdge []int) {
	t.Helper()
	wantDepth, wantOrder, wantErr := fromParentsBuckets(root, parent)
	got, err := tree.FromParents(root, parent, parentEdge)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.Depth, wantDepth) {
		t.Fatalf("%s: Depth %v, oracle %v", name, got.Depth, wantDepth)
	}
	if !slices.Equal(got.Order, wantOrder) {
		t.Fatalf("%s: Order %v, oracle %v", name, got.Order, wantOrder)
	}
}

// TestFromParentsMatchesBuckets pins FromParents to the bucket-based
// oracle on BFS trees of every graph family the cli language names, from
// several roots, and on random parent arrays — valid trees, and trees
// with one parent pointer redirected, which may escape or close a cycle.
func TestFromParentsMatchesBuckets(t *testing.T) {
	for _, spec := range []string{
		"grid:9x7", "torus:6x5", "wheel:12", "cycle:11", "path:10",
		"complete:7", "ktree:30,3", "random:40,70", "lb:5,12",
	} {
		g, _, err := cli.ParseGraph(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		for _, root := range []int{0, n / 3, n / 2, n - 1} {
			bfs := graph.BFS(g, root)
			name := fmt.Sprintf("%s root %d", spec, root)
			checkAgainstBuckets(t, name, root, bfs.Parent, bfs.ParentEdge)
			got, err := tree.FromParents(root, bfs.Parent, bfs.ParentEdge)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Depth, bfs.Dist) {
				t.Fatalf("%s: Depth differs from BFS distances", name)
			}
		}
	}

	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		perm := rng.Perm(n)
		parent := make([]int, n)
		parent[perm[0]] = -1
		for i := 1; i < n; i++ {
			parent[perm[i]] = perm[rng.Intn(i)]
		}
		root := perm[0]
		switch trial % 4 {
		case 1: // redirect one pointer anywhere in [-1, n]
			parent[rng.Intn(n)] = rng.Intn(n+2) - 1
		case 2: // a root that is not one, or out of range
			root = rng.Intn(n+2) - 1
		case 3: // every pointer random: mostly cycles
			for v := range parent {
				if v != root {
					parent[v] = rng.Intn(n)
				}
			}
		}
		parentEdge := make([]int, n)
		for v := range parentEdge {
			parentEdge[v] = rng.Intn(3*n) - 1
		}
		checkAgainstBuckets(t, fmt.Sprintf("trial %d parent %v root %d", trial, parent, root), root, parent, parentEdge)
	}
}
