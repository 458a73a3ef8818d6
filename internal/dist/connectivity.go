package dist

import (
	"fmt"

	"locshort/internal/graph"
)

// CCResult reports the sub-graph connectivity computation.
type CCResult struct {
	// Label[v] is v's H-component label; labels are dense, in order of
	// first appearance by node ID.
	Label []int
	// Components is the number of H-components.
	Components int
	// Phases is the number of Borůvka merge phases executed.
	Phases int
	// Rounds is the accumulated cost.
	Rounds Rounds
}

// SubgraphComponents identifies the connected components of the subgraph H
// of the network given by the edge indicator in (the Section 1.2
// application): Borůvka merge phases over shortcuts built for the current
// fragment partition, restricted to H-edges. Fragments stay connected in
// the network, so the shortcut machinery applies even when H's own
// components have huge diameter — the point of the application. opts
// selects the shortcut provider exactly as for MST.
func SubgraphComponents(g *graph.Graph, in []bool, opts MSTOptions) (*CCResult, error) {
	if len(in) != g.NumEdges() {
		return nil, fmt.Errorf("dist: %d edge indicators for %d edges", len(in), g.NumEdges())
	}
	run, err := runBoruvka(g, in, false, opts)
	if err != nil {
		return nil, err
	}
	components := 0
	for _, l := range run.comp {
		if l >= components {
			components = l + 1
		}
	}
	return &CCResult{
		Label:      run.comp,
		Components: components,
		Phases:     run.phases,
		Rounds:     run.rounds,
	}, nil
}

// ReferenceSubgraphComponents is the centralized ground truth for
// SubgraphComponents: a union-find sweep over the H-edges, with the same
// dense first-appearance labeling.
func ReferenceSubgraphComponents(g *graph.Graph, in []bool) []int {
	dsu := graph.NewDSU(g.NumNodes())
	for id := 0; id < g.NumEdges(); id++ {
		if in[id] {
			e := g.Edge(id)
			dsu.Union(e.U, e.V)
		}
	}
	label := make([]int, g.NumNodes())
	dense := map[int]int{}
	for v := range label {
		root := dsu.Find(v)
		if _, ok := dense[root]; !ok {
			dense[root] = len(dense)
		}
		label[v] = dense[root]
	}
	return label
}

// SameComponents reports whether two component labelings describe the same
// partition of the nodes (up to label renaming).
func SameComponents(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ab := map[int]int{}
	ba := map[int]int{}
	for v := range a {
		if m, ok := ab[a[v]]; ok && m != b[v] {
			return false
		}
		if m, ok := ba[b[v]]; ok && m != a[v] {
			return false
		}
		ab[a[v]] = b[v]
		ba[b[v]] = a[v]
	}
	return true
}
