package shortcut

import (
	"fmt"
	"math"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// Trivial builds the folklore D+sqrt(n) shortcut for general graphs
// described in Section 1.3 of the paper: parts larger than sqrt(n) receive
// the entire BFS tree T as their shortcut (at most sqrt(n) such parts exist,
// bounding congestion by sqrt(n); their dilation is at most 2*depth(T)),
// while smaller parts receive nothing (their induced diameter is below their
// size, at most sqrt(n)). This is the baseline underlying the classical
// O~(D+sqrt(n)) minimum spanning tree algorithms of Kutten and Peleg.
func Trivial(g *graph.Graph, p *partition.Partition, t *tree.Rooted) (*Shortcut, error) {
	if t == nil {
		var err error
		t, err = tree.Shared(g)
		if err != nil {
			return nil, fmt.Errorf("shortcut: build tree: %w", err)
		}
	}
	threshold := int(math.Ceil(math.Sqrt(float64(g.NumNodes()))))
	var treeEdges []int
	for v := 0; v < t.NumNodes(); v++ {
		if t.Parent[v] >= 0 {
			treeEdges = append(treeEdges, t.ParentEdge[v])
		}
	}
	s := &Shortcut{
		G:       g,
		Parts:   p,
		Tree:    t,
		H:       make([][]int, p.NumParts()),
		Covered: make([]bool, p.NumParts()),
	}
	for i, part := range p.Parts {
		s.Covered[i] = true
		if len(part) > threshold {
			h := make([]int, len(treeEdges))
			copy(h, treeEdges)
			s.H[i] = h
		} else {
			s.H[i] = []int{}
		}
	}
	return s, nil
}
