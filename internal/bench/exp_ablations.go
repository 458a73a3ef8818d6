package bench

import (
	"fmt"

	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

func init() {
	register(Experiment{ID: "A1", Title: "Ablation: congestion threshold", Run: runA1})
	register(Experiment{ID: "A2", Title: "Ablation: randomized vs fixed PA scheduling", Run: runA2})
	register(Experiment{ID: "A3", Title: "Ablation: sampled vs exact overcongestion detection", Run: runA3})
	register(Experiment{ID: "A4", Title: "Ablation: BFS-tree root choice (center vs corner)", Run: runA4})
}

// runA1 sweeps the congestion threshold of the partial construction in
// absolute terms: below the paper's c = 8δD (which exceeds the part count k
// on any instance of this scale, so no edge is ever overcongested), smaller
// thresholds cut more edges, fragmenting parts into more blocks — the
// trade-off behind the paper's choice.
func runA1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "congestion threshold c: coverage/blocks trade-off",
		Claim: "(design choice) larger c covers more parts with fewer blocks at a higher congestion budget",
		Note: "absolute-c sweep relative to the part count k: the paper's c = 8δD sits above k at unit-test " +
			"scales (rightmost rows), where the construction degenerates to zero cuts.",
		Columns: []string{"c", "c/k", "covered", "of", "congestion", "max blocks",
			"mean blocks"},
	}
	side := 20
	if cfg.Quick {
		side = 10
	}
	g := graph.Grid(side, side)
	k := 2 * side
	p, err := partition.BFSBlobs(g, k, newRand(cfg.Seed+21))
	if err != nil {
		return nil, err
	}
	tr, err := tree.Shared(g)
	if err != nil {
		return nil, err
	}
	for _, c := range []int{k / 8, k / 4, k / 2, k, 2 * k} {
		if c < 1 {
			c = 1
		}
		pr, err := shortcut.BuildPartial(g, tr, p, c, 1<<30, nil)
		if err != nil {
			return nil, err
		}
		q := shortcut.Measure(pr.Shortcut)
		// Mean block count over covered parts.
		total, covered := 0, 0
		for i := range pr.Shortcut.Covered {
			if pr.Shortcut.Covered[i] {
				covered++
				total += pr.DegB[i] + 1
			}
		}
		mean := 0.0
		if covered > 0 {
			mean = float64(total) / float64(covered)
		}
		t.AddRow(c, float64(c)/float64(k), covered, p.NumParts(), q.Congestion, q.MaxBlocks, mean)
	}
	return t, nil
}

// runA2 compares the randomized queue discipline against fixed service
// order in part-wise aggregation, across seeds.
func runA2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "PA contention scheduling: randomized vs fixed order",
		Claim: "(design choice) randomized service order realizes the random-delay schedule of [LMR94]",
		Columns: []string{"instance", "parts", "rounds random", "rounds fixed",
			"ratio fixed/random"},
	}
	type inst struct {
		name string
		g    *graph.Graph
		k    int
	}
	insts := []inst{
		{name: "grid 16x16", g: graph.Grid(16, 16), k: 32},
		{name: "torus 12x12", g: graph.Torus(12, 12), k: 24},
	}
	if cfg.Quick {
		insts = []inst{{name: "grid 8x8", g: graph.Grid(8, 8), k: 12}}
	}
	for _, in := range insts {
		p, err := partition.BFSBlobs(in.g, in.k, newRand(cfg.Seed+31))
		if err != nil {
			return nil, err
		}
		res, err := shortcut.Build(in.g, p, shortcut.Options{})
		if err != nil {
			return nil, err
		}
		routing, err := dist.NewPARouting(res.Shortcut)
		if err != nil {
			return nil, err
		}
		values := make([]dist.Payload, in.g.NumNodes())
		for v := range values {
			values[v] = dist.Payload{1, 0, 0}
		}
		budget := 64*in.g.NumNodes() + 4096
		random, err := dist.PartwiseAggregate(in.g, routing, dist.OpSum, values, cfg.Seed, true, budget)
		if err != nil {
			return nil, err
		}
		fixed, err := dist.PartwiseAggregate(in.g, routing, dist.OpSum, values, cfg.Seed, false, budget)
		if err != nil {
			return nil, err
		}
		ratio := float64(fixed.Rounds.Measured) / float64(maxInt(random.Rounds.Measured, 1))
		t.AddRow(in.name, in.k, random.Rounds.Measured, fixed.Rounds.Measured, ratio)
	}
	return t, nil
}

// runA3 compares the two Theorem 1.5 detection variants: sampled min-hash
// estimation vs exact capped ID sets.
func runA3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A3",
		Title: "overcongestion detection: min-hash sampling vs exact sets",
		Claim: "(design choice, [HIZ16a]) sampling trades exactness for a shorter wave schedule",
		Columns: []string{"instance", "variant", "δ'", "measured rounds", "total rounds",
			"congestion", "dilation", "covered"},
	}
	type inst struct {
		name string
		g    *graph.Graph
		k    int
	}
	insts := []inst{
		{name: "grid 16x16", g: graph.Grid(16, 16), k: 16},
		{name: "4-tree n=200", g: graph.KTree(200, 4, newRand(cfg.Seed+41)), k: 16},
	}
	if cfg.Quick {
		insts = []inst{{name: "grid 8x8", g: graph.Grid(8, 8), k: 8}}
	}
	for _, in := range insts {
		p, err := partition.BFSBlobs(in.g, in.k, newRand(cfg.Seed+42))
		if err != nil {
			return nil, err
		}
		for _, v := range []struct {
			name    string
			variant dist.Variant
		}{{"sampled", dist.Randomized}, {"exact", dist.Deterministic}} {
			res, err := dist.Construct(in.g, p, dist.ConstructOptions{Variant: v.variant, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			q := shortcut.Measure(res.Shortcut)
			t.AddRow(in.name, v.name, res.Delta, res.Rounds.Measured, res.Rounds.Total(),
				q.Congestion, q.Dilation,
				fmt.Sprintf("%d/%d", res.Shortcut.CoveredCount(), in.k))
		}
	}
	return t, nil
}

// runA4 compares rooting the shortcut tree at the double-sweep center
// (graph.ChooseRoot) against the naive minimum-ID corner root: depth roughly
// halves, and with it every quality bound — the reason Definition 2.3 asks
// for depth-D trees and the builder centers its root.
func runA4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A4",
		Title: "BFS-tree root: double-sweep center vs node 0",
		Claim: "(design choice) centering the tree root halves the depth and thereby every δD bound",
		Columns: []string{"instance", "root", "depth", "congestion", "dilation",
			"quality", "dilation bound (b+1)(2D+1)"},
	}
	type inst struct {
		name string
		g    *graph.Graph
		k    int
	}
	insts := []inst{
		{name: "grid 20x20", g: graph.Grid(20, 20), k: 20},
		{name: "cycle n=240", g: graph.Cycle(240), k: 12},
	}
	if cfg.Quick {
		insts = []inst{{name: "grid 10x10", g: graph.Grid(10, 10), k: 10}}
	}
	for _, in := range insts {
		p, err := partition.BFSBlobs(in.g, in.k, newRand(cfg.Seed+51))
		if err != nil {
			return nil, err
		}
		for _, root := range []struct {
			name string
			node int
		}{
			{name: "center", node: graph.ChooseRoot(in.g)},
			{name: "node 0", node: 0},
		} {
			tr, err := tree.FromBFS(in.g, root.node)
			if err != nil {
				return nil, err
			}
			res, err := shortcut.Build(in.g, p, shortcut.Options{Tree: tr})
			if err != nil {
				return nil, err
			}
			q := shortcut.Measure(res.Shortcut)
			t.AddRow(in.name, root.name, res.TreeDepth, q.Congestion, q.Dilation,
				q.Value(), (res.BlockBudget+1)*(2*res.TreeDepth+1))
		}
	}
	return t, nil
}
