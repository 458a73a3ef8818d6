package dist

import (
	"fmt"
	"math/rand"
	"sort"

	"locshort/internal/congest"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// PARouting is the per-part aggregation routing state installed on a
// shortcut: one rooted routing tree per part, spanning the augmented
// subgraph G[P_i] + H_i. Nodes of V(H_i) \ P_i participate as Steiner
// relays and contribute the operator identity.
type PARouting struct {
	// Parts is the partition the routing serves.
	Parts *partition.Partition
	// PartRoot[i] is the root node of part i's routing tree.
	PartRoot []int
	// PartDepth[i] is the depth of part i's routing tree; it is bounded by
	// the diameter of the augmented subgraph, i.e. the part's dilation.
	PartDepth []int

	entries [][]paEntry // per node: the parts it participates in
	n       int         // node count of the underlying graph
}

// paEntry is one node's role in one part's routing tree.
type paEntry struct {
	part       int
	parent     int   // parent node, -1 at the root
	parentEdge int   // graph edge ID to the parent, -1 at the root
	childEdges []int // graph edge IDs to routing-tree children
	member     bool  // node ∈ P_i (contributes its value)
}

// MaxDepth returns the deepest routing tree's depth.
func (r *PARouting) MaxDepth() int {
	d := 0
	for _, pd := range r.PartDepth {
		if pd > d {
			d = pd
		}
	}
	return d
}

// NewPARouting builds aggregation routing trees on a full shortcut: for
// every part a BFS tree of the augmented subgraph G[P_i] + H_i, rooted at
// a double-sweep endpoint so the depth is at most the augmented diameter
// (the part's dilation). Every part must be covered.
func NewPARouting(s *shortcut.Shortcut) (*PARouting, error) {
	g := s.G
	k := s.Parts.NumParts()
	r := &PARouting{
		Parts:     s.Parts,
		PartRoot:  make([]int, k),
		PartDepth: make([]int, k),
		entries:   make([][]paEntry, g.NumNodes()),
		n:         g.NumNodes(),
	}
	for i := 0; i < k; i++ {
		if !s.Covered[i] {
			return nil, fmt.Errorf("dist: part %d is uncovered; aggregation routing needs a full shortcut", i)
		}
		if err := r.installPart(g, s, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// paArc is one direction of an augmented-subgraph edge.
type paArc struct{ to, edge int }

// installPart builds part i's routing tree.
func (r *PARouting) installPart(g *graph.Graph, s *shortcut.Shortcut, i int) error {
	// Augmented adjacency over global node IDs, graph edge IDs preserved.
	inPart := make(map[int]bool, len(s.Parts.Parts[i]))
	for _, v := range s.Parts.Parts[i] {
		inPart[v] = true
	}
	adj := make(map[int][]paArc)
	addEdge := func(id int) {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], paArc{to: e.V, edge: id})
		adj[e.V] = append(adj[e.V], paArc{to: e.U, edge: id})
	}
	csr := g.CSR()
	for _, v := range s.Parts.Parts[i] {
		for _, a := range csr.Neighbors(v) {
			if inPart[a.To] && v < a.To {
				addEdge(a.Edge)
			}
		}
		if _, ok := adj[v]; !ok {
			adj[v] = nil // isolated singleton part
		}
	}
	for _, id := range s.H[i] {
		addEdge(id)
	}
	//locshort:nondeterministic-ok each key's slice is sorted independently; visit order cannot change the result
	for v := range adj {
		as := adj[v]
		sort.Slice(as, func(x, y int) bool {
			if as[x].to != as[y].to {
				return as[x].to < as[y].to
			}
			return as[x].edge < as[y].edge
		})
	}

	bfs := func(src int) (dist, parent, parentEdge map[int]int, far, depth int) {
		dist = map[int]int{src: 0}
		parent = map[int]int{src: -1}
		parentEdge = map[int]int{src: -1}
		queue := []int{src}
		far = src
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if dist[v] > depth {
				depth = dist[v]
				far = v
			}
			for _, a := range adj[v] {
				if _, seen := dist[a.to]; !seen {
					dist[a.to] = dist[v] + 1
					parent[a.to] = v
					parentEdge[a.to] = a.edge
					queue = append(queue, a.to)
				}
			}
		}
		return dist, parent, parentEdge, far, depth
	}

	// Double sweep: the second BFS is rooted at an eccentric node, so its
	// depth is at most the augmented diameter.
	_, _, _, far, _ := bfs(s.Parts.Parts[i][0])
	dist, parent, parentEdge, _, depth := bfs(far)
	if len(dist) != len(adj) {
		return errDisconnectedPart(i)
	}
	r.PartRoot[i] = far
	r.PartDepth[i] = depth

	// Children edge lists.
	childEdges := make(map[int][]int)
	nodes := make([]int, 0, len(adj))
	//locshort:nondeterministic-ok keys are collected and sorted before any order-sensitive use
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	for _, v := range nodes {
		if p := parent[v]; p >= 0 {
			childEdges[p] = append(childEdges[p], parentEdge[v])
		}
	}
	for _, v := range nodes {
		r.entries[v] = append(r.entries[v], paEntry{
			part:       i,
			parent:     parent[v],
			parentEdge: parentEdge[v],
			childEdges: childEdges[v],
			member:     inPart[v],
		})
	}
	return nil
}

func errDisconnectedPart(i int) error {
	return fmt.Errorf("dist: augmented subgraph of part %d is disconnected", i)
}

// PAResult is the outcome of a part-wise aggregation or broadcast.
type PAResult struct {
	// PartResult[i] is part i's aggregate (for broadcasts: its input).
	PartResult []Payload
	// NodeResult[v] is the aggregate of v's own part, known at v after the
	// downward phase; the operator identity for uncovered nodes.
	NodeResult []Payload
	// Rounds is the simulated round count (all measured).
	Rounds Rounds
	// Stats carries the simulator statistics.
	Stats *congest.Stats
}

// Message kinds of the aggregation schedule.
const (
	kindPAUp   uint8 = 6
	kindPADown uint8 = 7
)

// PartwiseAggregate solves one instance of the part-wise aggregation
// problem (Definition 2.1) on the installed routing: a convergecast of op
// over every part's routing tree followed by a broadcast of the result
// back to all participants, simulated on the CONGEST network. Edges shared
// by several routing trees serve one message per round per direction;
// queued messages are served in random order when randomized is true (the
// [LMR94] random-delay schedule realized as a random queue discipline) and
// in increasing part order otherwise. values holds one payload per node;
// only part members contribute (Steiner relays inject op's identity).
// maxRounds bounds the simulation.
func PartwiseAggregate(g *graph.Graph, r *PARouting, op Op, values []Payload,
	seed int64, randomized bool, maxRounds int) (*PAResult, error) {
	if len(values) != g.NumNodes() {
		return nil, fmt.Errorf("dist: %d values for %d nodes", len(values), g.NumNodes())
	}
	return runPA(g, r, op, values, seed, randomized, maxRounds)
}

type paState struct {
	entry    paEntry
	pending  int // children not yet heard from (convergecast)
	acc      Payload
	upDone   bool
	haveRes  bool
	result   Payload
	downDone bool
}

type outMsg struct {
	part    int
	kind    uint8
	payload Payload
}

// paProc is one node of the aggregation schedule.
type paProc struct {
	node       int
	op         Op
	states     []paState
	byPart     map[int]int // part -> index into states
	queueEdges []int       // sorted incident edges this node routes on
	queues     [][]outMsg  // parallel to queueEdges
	rng        *rand.Rand  // nil: fixed (increasing-part) discipline
	partRes    []Payload   // shared, element-disjoint writes (roots only)
	nodeRes    []Payload   // shared, element-disjoint writes (own index)
}

func (p *paProc) enqueue(edge int, m outMsg) {
	i := sort.SearchInts(p.queueEdges, edge)
	p.queues[i] = append(p.queues[i], m)
}

func (p *paProc) Step(ctx *congest.Context) {
	for _, in := range ctx.In {
		idx, ok := p.byPart[int(in.Msg.A)]
		if !ok {
			continue
		}
		st := &p.states[idx]
		pl := Payload{in.Msg.B, in.Msg.C, in.Msg.D}
		switch in.Msg.Kind {
		case kindPAUp:
			st.acc = p.op.combine(st.acc, pl)
			st.pending--
		case kindPADown:
			st.result = pl
			st.haveRes = true
		}
	}
	done := true
	for i := range p.states {
		st := &p.states[i]
		if !st.upDone && st.pending == 0 {
			st.upDone = true
			if st.entry.parent < 0 {
				// Root: the aggregate is final; publish and start the
				// downward phase.
				st.result = st.acc
				st.haveRes = true
				p.partRes[st.entry.part] = st.acc
			} else {
				p.enqueue(st.entry.parentEdge, outMsg{part: st.entry.part, kind: kindPAUp, payload: st.acc})
			}
		}
		if st.haveRes && !st.downDone {
			st.downDone = true
			if st.entry.member {
				p.nodeRes[p.node] = st.result
			}
			for _, ce := range st.entry.childEdges {
				p.enqueue(ce, outMsg{part: st.entry.part, kind: kindPADown, payload: st.result})
			}
		}
		if !st.upDone || !st.downDone {
			done = false
		}
	}
	// Serve each incident edge: one queued message per round, picked at
	// random (randomized discipline) or lowest-part-first (fixed).
	for i, q := range p.queues {
		if len(q) == 0 {
			continue
		}
		pick := 0
		if p.rng != nil {
			pick = p.rng.Intn(len(q))
		} else {
			for j := 1; j < len(q); j++ {
				if q[j].part < q[pick].part {
					pick = j
				}
			}
		}
		m := q[pick]
		p.queues[i] = append(q[:pick], q[pick+1:]...)
		ctx.Send(p.queueEdges[i], congest.Msg{
			Kind: m.kind, A: int64(m.part), B: m.payload[0], C: m.payload[1], D: m.payload[2],
		})
		done = false
	}
	if done {
		ctx.Halt()
	}
}

// runPA drives the schedule: the convergecast of values, then the
// broadcast of each part's aggregate.
func runPA(g *graph.Graph, r *PARouting, op Op, values []Payload,
	seed int64, randomized bool, maxRounds int) (*PAResult, error) {
	if r.n != g.NumNodes() {
		return nil, fmt.Errorf("dist: routing installed for %d nodes, graph has %d", r.n, g.NumNodes())
	}
	n := g.NumNodes()
	k := r.Parts.NumParts()
	res := &PAResult{
		PartResult: make([]Payload, k),
		NodeResult: make([]Payload, n),
	}
	for i := range res.PartResult {
		res.PartResult[i] = op.identity()
	}
	for v := range res.NodeResult {
		res.NodeResult[v] = op.identity()
	}

	procs := make([]congest.Proc, n)
	for v := 0; v < n; v++ {
		entries := r.entries[v]
		p := &paProc{
			node:    v,
			op:      op,
			states:  make([]paState, len(entries)),
			byPart:  make(map[int]int, len(entries)),
			partRes: res.PartResult,
			nodeRes: res.NodeResult,
		}
		if randomized {
			p.rng = rand.New(rand.NewSource(seed ^ (int64(v)+1)*0x4F1BBCDCBFA53E0B))
		}
		edgeSet := map[int]bool{}
		for j, e := range entries {
			st := paState{entry: e, pending: len(e.childEdges), acc: op.identity()}
			if e.member {
				st.acc = values[v]
			}
			p.states[j] = st
			p.byPart[e.part] = j
			if e.parentEdge >= 0 {
				edgeSet[e.parentEdge] = true
			}
			for _, ce := range e.childEdges {
				edgeSet[ce] = true
			}
		}
		p.queueEdges = make([]int, 0, len(edgeSet))
		//locshort:nondeterministic-ok keys are collected and sorted before any order-sensitive use
		for e := range edgeSet {
			p.queueEdges = append(p.queueEdges, e)
		}
		sort.Ints(p.queueEdges)
		p.queues = make([][]outMsg, len(p.queueEdges))
		procs[v] = p
	}

	net, err := congest.NewNetwork(g, procs)
	if err != nil {
		return nil, err
	}
	stats, err := net.Run(maxRounds)
	if err != nil {
		return nil, fmt.Errorf("dist: part-wise aggregation: %w", err)
	}
	res.Rounds = Rounds{Measured: stats.Rounds}
	res.Stats = stats
	return res, nil
}
