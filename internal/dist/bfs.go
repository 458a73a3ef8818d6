package dist

import (
	"fmt"

	"locshort/internal/congest"
	"locshort/internal/graph"
	"locshort/internal/tree"
)

// BFSTreeResult is the outcome of the distributed BFS-tree construction.
type BFSTreeResult struct {
	// Tree is the computed BFS tree, materialized from the per-node parent
	// pointers the protocol left behind.
	Tree *tree.Rooted
	// Root is the node the wave started from.
	Root int
	// Rounds is the protocol's round breakdown (all measured).
	Rounds Rounds
	// Stats carries the simulator statistics (messages, per-edge loads).
	Stats *congest.Stats
}

// bfsMsg carries the sender's BFS level.
const kindBFSLevel uint8 = 1

// bfsProc is the textbook BFS wave: the root announces level 0 in round 0;
// every other node adopts the first announcement it hears (ties broken by
// the simulator's deterministic sender order), rebroadcasts level+1, and
// halts. The wave completes in eccentricity(root)+1 rounds.
type bfsProc struct {
	isRoot     bool
	depth      int
	parent     int
	parentEdge int
}

func (p *bfsProc) Step(ctx *congest.Context) {
	if p.isRoot {
		ctx.Broadcast(congest.Msg{Kind: kindBFSLevel, A: 0})
		ctx.Halt()
		return
	}
	if len(ctx.In) == 0 {
		return
	}
	// Inboxes are sorted by (sender, edge): the first announcement is the
	// deterministic choice.
	in := ctx.In[0]
	p.depth = int(in.Msg.A) + 1
	p.parent = in.From
	p.parentEdge = in.Edge
	ctx.Broadcast(congest.Msg{Kind: kindBFSLevel, A: int64(p.depth)})
	ctx.Halt()
}

// BuildBFSTree runs the distributed BFS-tree protocol from a near-central
// root (the leader; leader election is assumed, as throughout the paper)
// and returns the materialized tree. maxRounds bounds the simulation.
func BuildBFSTree(g *graph.Graph, maxRounds int) (*BFSTreeResult, error) {
	return buildBFSTreeFrom(g, graph.ChooseRoot(g), maxRounds)
}

func buildBFSTreeFrom(g *graph.Graph, root, maxRounds int) (*BFSTreeResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("dist: empty graph")
	}
	procs := make([]congest.Proc, n)
	nodes := make([]*bfsProc, n)
	for v := 0; v < n; v++ {
		nodes[v] = &bfsProc{isRoot: v == root, depth: -1, parent: -1, parentEdge: -1}
		procs[v] = nodes[v]
	}
	nodes[root].depth = 0
	net, err := congest.NewNetwork(g, procs)
	if err != nil {
		return nil, err
	}
	stats, err := net.Run(maxRounds)
	if err != nil {
		return nil, fmt.Errorf("dist: BFS wave: %w", err)
	}
	parent := make([]int, n)
	parentEdge := make([]int, n)
	for v := 0; v < n; v++ {
		if v != root && nodes[v].depth < 0 {
			return nil, graph.ErrDisconnected
		}
		parent[v] = nodes[v].parent
		parentEdge[v] = nodes[v].parentEdge
	}
	t, err := tree.FromParents(root, parent, parentEdge)
	if err != nil {
		return nil, fmt.Errorf("dist: BFS tree: %w", err)
	}
	return &BFSTreeResult{
		Tree:   t,
		Root:   root,
		Rounds: Rounds{Measured: stats.Rounds},
		Stats:  stats,
	}, nil
}
