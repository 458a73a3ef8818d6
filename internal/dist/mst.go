package dist

import (
	"fmt"
	"math"
	"sort"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// MSTOptions configures the Corollary 1.6 distributed minimum spanning
// tree (and the other Borůvka-over-shortcuts algorithms that reuse its
// engine).
type MSTOptions struct {
	// Provider selects how each phase's shortcut is obtained and paid for.
	// The zero value is ProviderCentral.
	Provider ProviderKind
	// Seed drives construction sampling and contention scheduling.
	Seed int64
	// Construct tunes the distributed construction when Provider is
	// ProviderDistributed (Seed is overridden per phase).
	Construct ConstructOptions
	// MaxPhases caps the Borůvka loop (default 2⌈log₂n⌉+4; the loop needs
	// at most ⌈log₂n⌉ phases).
	MaxPhases int
}

// MSTResult reports the distributed MST computation.
type MSTResult struct {
	// Weight is the total weight of the chosen edges; with distinct
	// weights it equals the unique MST weight (graph.Kruskal).
	Weight float64
	// EdgeIDs lists the chosen edges in increasing ID order.
	EdgeIDs []int
	// Phases is the number of Borůvka phases executed.
	Phases int
	// Rounds is the cost breakdown over all phases.
	Rounds Rounds
	// Messages counts simulated messages (ProviderDistributed only).
	Messages int64
}

// MST computes a minimum spanning tree by Borůvka phases over part-wise
// aggregation (Corollary 1.6): each phase treats the current fragments as
// the parts of a partition, obtains a shortcut for it from the configured
// provider, aggregates every fragment's minimum-weight outgoing edge with
// OpMin, and merges. Ties are broken by edge ID, so the result matches
// graph.Kruskal's tie-breaking exactly.
func MST(g *graph.Graph, opts MSTOptions) (*MSTResult, error) {
	eng, err := runBoruvka(g, nil, true, opts)
	if err != nil {
		return nil, err
	}
	return &MSTResult{
		Weight:   eng.weight,
		EdgeIDs:  eng.chosen,
		Phases:   eng.phases,
		Rounds:   eng.rounds,
		Messages: eng.messages,
	}, nil
}

// boruvkaRun accumulates the state of a Borůvka-over-shortcuts execution.
type boruvkaRun struct {
	comp     []int // current fragment label per node (dense after finish)
	chosen   []int
	weight   float64
	phases   int
	rounds   Rounds
	messages int64
}

// minEdgeKey orders candidate edges by (weight, edge ID); the encoded pair
// rides in a Payload for OpMin aggregation.
func minEdgeKey(g *graph.Graph, id int) Payload {
	return Payload{encodeWeight(g.Edge(id).W), int64(id), 0}
}

// runBoruvka runs Borůvka phases restricted to the edges with restrict[id]
// true (nil: all edges). It stops when no fragment has an outgoing
// restricted edge, so on a graph whose restricted subgraph is disconnected
// it computes a minimum spanning forest of that subgraph.
func runBoruvka(g *graph.Graph, restrict []bool, weighted bool, opts MSTOptions) (*boruvkaRun, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("dist: empty graph")
	}
	maxPhases := opts.MaxPhases
	if maxPhases == 0 {
		maxPhases = 2*ceilLog2(n) + 4
	}
	run := &boruvkaRun{comp: make([]int, n)}
	dsu := graph.NewDSU(n)

	// The charged providers restrict every phase's shortcut to the graph's
	// shared BFS tree; it is partition-independent, so one header serves
	// every phase.
	var tr *tree.Rooted
	if opts.Provider != ProviderDistributed {
		var err error
		tr, err = tree.Shared(g)
		if err != nil {
			return nil, fmt.Errorf("dist: shortcut tree: %w", err)
		}
	}

	converged := false
	// One partition and label slice serve every phase: each phase's
	// shortcut, routing, and aggregation results are discarded before the
	// next rebuild, which is exactly the ownership FromLabelsInto needs.
	var phaseParts partition.Partition
	label := make([]int, n)
	for phase := 1; phase <= maxPhases; phase++ {
		// Fragment labels; every fragment is connected in G because it
		// grew along chosen G-edges.
		for v := 0; v < n; v++ {
			label[v] = dsu.Find(v)
		}
		p, err := partition.FromLabelsInto(&phaseParts, g, label)
		if err != nil {
			return nil, fmt.Errorf("dist: phase %d partition: %w", phase, err)
		}
		if p.NumParts() == 1 {
			converged = true
			break
		}

		// Every node's minimum-key outgoing restricted edge. In the real
		// protocol this is one neighbor-label exchange round, charged to
		// the phase barrier below.
		candidates := make([]Payload, n)
		noCand := Payload{math.MaxInt64, math.MaxInt64, math.MaxInt64}
		anyOutgoing := false
		csr := g.CSR()
		for v := 0; v < n; v++ {
			best := noCand
			for _, a := range csr.Neighbors(v) {
				if restrict != nil && !restrict[a.Edge] {
					continue
				}
				if label[a.To] == label[v] {
					continue
				}
				if key := minEdgeKey(g, a.Edge); lexLess(key, best) {
					best = key
				}
			}
			candidates[v] = best
			if best != noCand {
				anyOutgoing = true
			}
		}
		if !anyOutgoing {
			converged = true
			break
		}

		// Shortcut for this phase's partition and an OpMin aggregation of
		// the candidates over it.
		perPart, cost, msgs, err := aggregateMin(g, p, tr, candidates, phase, opts)
		if err != nil {
			return nil, fmt.Errorf("dist: phase %d: %w", phase, err)
		}
		run.rounds.add(cost)
		run.messages += msgs

		// Merge along every fragment's winner (deduplicated: two
		// fragments may pick the same edge).
		picked := map[int]bool{}
		for i := 0; i < p.NumParts(); i++ {
			if perPart[i][0] == math.MaxInt64 {
				continue // no outgoing edge: fragment is finished
			}
			id := int(perPart[i][1])
			if picked[id] {
				continue
			}
			picked[id] = true
			e := g.Edge(id)
			if dsu.Union(e.U, e.V) {
				run.chosen = append(run.chosen, id)
				if weighted {
					run.weight += e.W
				}
			}
		}
		run.phases++
	}
	if !converged {
		// A merge happened every phase, so exhausting the cap means the
		// caller lowered MaxPhases below what the instance needs; a
		// partial forest must not masquerade as the answer.
		for id := 0; id < g.NumEdges(); id++ {
			if restrict != nil && !restrict[id] {
				continue
			}
			if e := g.Edge(id); dsu.Find(e.U) != dsu.Find(e.V) {
				return nil, fmt.Errorf("dist: Borůvka did not converge within %d phases", maxPhases)
			}
		}
	}

	// Dense final labels, in order of first appearance.
	dense := map[int]int{}
	for v := 0; v < n; v++ {
		root := dsu.Find(v)
		if _, ok := dense[root]; !ok {
			dense[root] = len(dense)
		}
		run.comp[v] = dense[root]
	}
	sort.Ints(run.chosen)
	return run, nil
}

// aggregateMin obtains a shortcut for partition p from the provider
// (restricted to the precomputed tree tr for the charged providers) and
// aggregates the per-node candidates with OpMin over it, returning the
// per-part minima and the phase's cost.
func aggregateMin(g *graph.Graph, p *partition.Partition, tr *tree.Rooted, candidates []Payload,
	phase int, opts MSTOptions) ([]Payload, Rounds, int64, error) {
	n := g.NumNodes()
	logn := ceilLog2(n)
	phaseSeed := opts.Seed + int64(phase)*0x5DEECE66D
	var cost Rounds
	var messages int64

	switch opts.Provider {
	case ProviderDistributed:
		copts := opts.Construct
		copts.Seed = phaseSeed
		res, err := Construct(g, p, copts)
		if err != nil {
			return nil, cost, 0, err
		}
		cost.add(res.Rounds)
		messages += res.Messages
		pa, err := PartwiseAggregate(g, res.Routing, OpMin, candidates,
			phaseSeed, true, 64*n+4096)
		if err != nil {
			return nil, cost, 0, err
		}
		cost.add(pa.Rounds)
		messages += pa.Stats.Messages
		// Phase barrier + neighbor-label exchange.
		cost.Sync += res.Tree.MaxDepth() + 2
		return pa.PartResult, cost, messages, nil

	case ProviderTrivial:
		s, err := shortcut.Trivial(g, p, tr)
		if err != nil {
			return nil, cost, 0, err
		}
		// Building the D+sqrt(n) baseline costs one BFS wave and a part
		// size count; the aggregation is charged at the shortcut's
		// measured quality.
		depth := s.Tree.MaxDepth()
		q := shortcut.Measure(s)
		cost.Charged += 2*(depth+1) + 2*(q.Congestion+q.Dilation*logn) + 4
		cost.Sync += depth + 2
		return referenceAggregate(p, OpMin, candidates), cost, 0, nil

	default: // ProviderCentral, ProviderCentralAdaptive
		res, err := shortcut.Build(g, p, shortcut.Options{Tree: tr})
		if err != nil {
			return nil, cost, 0, err
		}
		depth := res.TreeDepth
		// Construction charged at the Lemma 2.8 worst-case budget
		// b(2D+1)+c per iteration, plus routing installation.
		cost.Charged += res.Iterations*(res.BlockBudget*(2*depth+1)+res.CongestionThreshold) + 2*(depth+1)
		if opts.Provider == ProviderCentralAdaptive {
			// Aggregation charged at the measured quality Õ(Q).
			q := shortcut.Measure(res.Shortcut)
			cost.Charged += 2*(q.Congestion+q.Dilation*logn) + 4
		} else {
			// Aggregation charged at the worst-case quality bounds of the
			// accepted level.
			congBound := res.CongestionThreshold * res.Iterations
			dilBound := (res.BlockBudget + 1) * (2*depth + 1)
			cost.Charged += 2*(congBound+dilBound*logn) + 4
		}
		cost.Sync += depth + 2
		return referenceAggregate(p, OpMin, candidates), cost, 0, nil
	}
}

// referenceAggregate folds candidates per part centrally — the semantics
// the charged providers pay for without simulating.
func referenceAggregate(p *partition.Partition, op Op, values []Payload) []Payload {
	out := make([]Payload, p.NumParts())
	for i := range out {
		out[i] = op.identity()
	}
	for v, pl := range values {
		if i := p.PartOf[v]; i >= 0 {
			out[i] = op.combine(out[i], pl)
		}
	}
	return out
}
