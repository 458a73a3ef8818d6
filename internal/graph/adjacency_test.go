package graph_test

import (
	"slices"
	"sync"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/service"
	"locshort/internal/store"
)

// adjacencyCase is a graph the derived-adjacency tests traverse.
type adjacencyCase struct {
	name string
	g    *graph.Graph
}

// adjacencyCases returns one graph per cli family, in canonical form, and
// one decoded from a binary payload: a multigraph with parallel weighted
// edges and an isolated node.
func adjacencyCases(t *testing.T) []adjacencyCase {
	t.Helper()
	var cases []adjacencyCase
	for _, spec := range []string{
		"grid:7x5", "torus:4x6", "wheel:9", "cycle:7", "path:6",
		"complete:6", "ktree:40,3", "random:30,60", "lb:5,12",
	} {
		g, _, err := cli.ParseGraph(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, adjacencyCase{spec, g})
	}
	multi := graph.New(6)
	multi.AddWeightedEdge(3, 1, 2)
	multi.AddWeightedEdge(1, 3, 0.5)
	multi.AddWeightedEdge(0, 4, 1)
	multi.AddWeightedEdge(4, 1, 1)
	multi.AddWeightedEdge(2, 0, 1)
	payload := store.EncodeGraphPayload(multi)
	g, err := store.DecodeGraphPayload(payload, service.FingerprintBytes(payload[1:]))
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, adjacencyCase{"decoded multigraph", g})
}

// checkAdjacency holds g's Neighbors, Degree and CSR view to a reference
// built from EdgeSlice: every node's arcs in edge-ID order, each
// Neighbors result capped at its length.
func checkAdjacency(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	ref := make([][]graph.Arc, n)
	for id, e := range g.EdgeSlice() {
		ref[e.U] = append(ref[e.U], graph.Arc{To: e.V, Edge: id})
		ref[e.V] = append(ref[e.V], graph.Arc{To: e.U, Edge: id})
	}
	c := g.CSR()
	if len(c.Offsets) != n+1 || c.Offsets[0] != 0 || int(c.Offsets[n]) != 2*g.NumEdges() ||
		len(c.To) != 2*g.NumEdges() || len(c.EdgeID) != 2*g.NumEdges() {
		t.Fatalf("%s: CSR sized %d offsets (ends %d, %d), %d and %d arcs, want %d offsets from 0 to %d arcs",
			name, len(c.Offsets), c.Offsets[0], c.Offsets[n], len(c.To), len(c.EdgeID), n+1, 2*g.NumEdges())
	}
	for v := range n {
		got := g.Neighbors(v)
		if !slices.Equal(got, ref[v]) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, v, got, ref[v])
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: Neighbors(%d) has cap %d, len %d", name, v, cap(got), len(got))
		}
		if !slices.Equal(c.Neighbors(v), ref[v]) {
			t.Fatalf("%s: CSR Neighbors(%d) = %v, want %v", name, v, c.Neighbors(v), ref[v])
		}
		if g.Degree(v) != len(ref[v]) || c.Degree(v) != len(ref[v]) {
			t.Fatalf("%s: node %d degree %d (CSR %d), want %d", name, v, g.Degree(v), c.Degree(v), len(ref[v]))
		}
		for i, a := range ref[v] {
			j := int(c.Offsets[v]) + i
			if int(c.To[j]) != a.To || int(c.EdgeID[j]) != a.Edge {
				t.Fatalf("%s: node %d arc %d: CSR (%d,%d), want (%d,%d)", name, v, i, c.To[j], c.EdgeID[j], a.To, a.Edge)
			}
		}
	}
}

// TestDerivedAdjacency checks the adjacency derived from the edge list on
// every cli family and a decoded payload, and that an edge added after a
// traversal rebuilds it.
func TestDerivedAdjacency(t *testing.T) {
	for _, tc := range adjacencyCases(t) {
		g := tc.g
		checkAdjacency(t, tc.name, g)
		// An append to one node's arcs must not reach the next node's.
		next := slices.Clone(g.Neighbors(1))
		_ = append(g.Neighbors(0), graph.Arc{To: -1, Edge: -1})
		if !slices.Equal(g.Neighbors(1), next) {
			t.Fatalf("%s: an append to Neighbors(0) changed Neighbors(1)", tc.name)
		}
		before, tree := g.CSR(), g.BFSTree()
		u, v := 0, g.NumNodes()-1
		id := g.AddEdge(u, v)
		if g.CSR() == before {
			t.Fatalf("%s: AddEdge after a traversal kept the CSR view", tc.name)
		}
		checkAdjacency(t, tc.name+" after AddEdge", g)
		if last := g.Neighbors(u); last[len(last)-1] != (graph.Arc{To: v, Edge: id}) {
			t.Fatalf("%s: Neighbors(%d) ends %v, want the added edge %d", tc.name, u, last[len(last)-1], id)
		}
		// The rebuilt tree sees the new edge: its ends are at most one
		// level apart.
		if after := g.BFSTree(); after == tree || after.Dist[u]-after.Dist[v] > 1 || after.Dist[v]-after.Dist[u] > 1 {
			t.Fatalf("%s: BFS tree not rebuilt after AddEdge", tc.name)
		}
	}
}

// TestFirstTraversalConcurrent has several goroutines make the first
// Neighbors, CSR and BFSTree calls on a fresh graph at once: every caller
// must see the one memoized view and tree, equal to those of a graph
// traversed alone. CI runs it under -race -count=10.
func TestFirstTraversalConcurrent(t *testing.T) {
	const callers = 8
	for _, spec := range []string{"torus:12x12", "ktree:200,3"} {
		alone, _, err := cli.ParseGraph(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantRoot := alone.BFSTree().Root
		for trial := 0; trial < 10; trial++ {
			g, _, err := cli.ParseGraph(spec, 5)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg    sync.WaitGroup
				start = make(chan struct{})
				csrs  [callers]*graph.CSR
				trees [callers]*graph.BFSTree
				arcs  [callers][]graph.Arc
			)
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					switch i % 3 {
					case 0:
						arcs[i] = g.Neighbors(i)
					case 1:
						csrs[i] = g.CSR()
					case 2:
						trees[i] = g.BFSTree()
					}
					arcs[i] = g.Neighbors(i)
					csrs[i] = g.CSR()
					trees[i] = g.BFSTree()
				}()
			}
			close(start)
			wg.Wait()
			for i := range callers {
				if csrs[i] != csrs[0] || trees[i] != trees[0] {
					t.Fatalf("%s: caller %d saw another CSR view or BFS tree", spec, i)
				}
				if !slices.Equal(arcs[i], alone.Neighbors(i)) {
					t.Fatalf("%s: caller %d: Neighbors(%d) = %v, want %v", spec, i, i, arcs[i], alone.Neighbors(i))
				}
			}
			if trees[0].Root != wantRoot || !slices.Equal(trees[0].Parent, alone.BFSTree().Parent) {
				t.Fatalf("%s: concurrent first BFSTree rooted at %d, want %d with the same parents", spec, trees[0].Root, wantRoot)
			}
		}
	}
}
