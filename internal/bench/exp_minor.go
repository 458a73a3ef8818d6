package bench

import (
	"fmt"

	"locshort/internal/graph"
	"locshort/internal/minor"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

func init() {
	register(Experiment{ID: "E9", Title: "Lemma 1.1 / Lemma 3.3: minor-density estimates", Run: runE9})
	register(Experiment{ID: "E10", Title: "Section 3.1 remark: certifying construction", Run: runE10})
}

// runE9 sandwiches delta(G) between the greedy contraction lower bound and
// the analytic Lemma 3.3 upper bound on every family.
func runE9(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Lemmas 1.1 & 3.3 — minor density: greedy witness vs analytic bound",
		Claim: "greedy-found minor density lower-bounds δ(G); Lemma 3.3 upper-bounds it per family",
		Note:  "K_n rows also check Lemma 1.1's normalization δ(K_n) = (n-1)/2 exactly.",
		Columns: []string{"family", "n", "m", "greedy δ ≤", "analytic δ bound",
			"sandwich holds", "witness valid"},
	}
	rng := newRand(cfg.Seed + 9)
	type inst struct {
		name  string
		g     *graph.Graph
		bound float64
		exact bool // analytic bound is the exact value
	}
	gridSide, torusSide, ktreeN := 12, 9, 100
	if cfg.Quick {
		gridSide, torusSide, ktreeN = 7, 6, 40
	}
	insts := []inst{
		{name: fmt.Sprintf("grid %dx%d", gridSide, gridSide), g: graph.Grid(gridSide, gridSide), bound: minor.PlanarDensityBound},
		{name: fmt.Sprintf("torus %dx%d", torusSide, torusSide), g: graph.Torus(torusSide, torusSide), bound: minor.GenusDensityBound(1)},
		{name: "wheel n=60", g: graph.Wheel(60), bound: minor.PlanarDensityBound},
		{name: fmt.Sprintf("2-tree n=%d", ktreeN), g: graph.KTree(ktreeN, 2, rng), bound: minor.TreewidthDensityBound(2)},
		{name: fmt.Sprintf("4-tree n=%d", ktreeN), g: graph.KTree(ktreeN, 4, rng), bound: minor.TreewidthDensityBound(4)},
		{name: "K12", g: graph.Complete(12), bound: minor.CompleteDensity(12), exact: true},
		{name: "K20", g: graph.Complete(20), bound: minor.CompleteDensity(20), exact: true},
	}
	for _, in := range insts {
		w := minor.GreedyDenseMinor(in.g, rng)
		valid := w.Validate(in.g) == nil
		ok := w.Density() <= in.bound+1e-9
		if in.exact {
			ok = ok && w.Density() >= in.bound-1e-9
		}
		t.AddRow(in.name, in.g.NumNodes(), in.g.NumEdges(),
			w.Density(), in.bound, ok, valid)
	}
	return t, nil
}

// runE10 exercises the certifying algorithm of the Section 3.1 remark: on
// instances where a (reduced-constant) level fails, a valid dense bipartite
// minor is produced; on planar graphs, density-3 certificates must never
// appear (soundness).
func runE10(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Section 3.1 remark — certifying construction: dense-minor witnesses",
		Claim: "when the construction fails at level δ', it can emit a minor of density > δ'; no certificate can exceed δ(G)",
		Note: "reduced constants (c = depth, b = 1) are used to force failures at unit-test scale; with the paper's " +
			"constant 8, failing instances require k > 8·depth parts, which first happens at δ > 20 (≈10⁶ nodes). " +
			"'soundness' rows run extraction above the family's true δ and must find nothing.",
		Columns: []string{"instance", "target δ", "failed parts", "certificate", "density", "valid minor", "verdict"},
	}
	// LB(6,32) is the smallest instance where certificate extraction is
	// reliable (see DESIGN.md); quick mode only reduces sampling attempts.
	lbDelta, lbDiam := 6, 32
	attempts := 400
	if cfg.Quick {
		attempts = 200
	}
	lb, err := graph.LowerBound(lbDelta, lbDiam)
	if err != nil {
		return nil, err
	}
	p, err := partition.New(lb.G, lb.Rows)
	if err != nil {
		return nil, err
	}
	tr, err := tree.Shared(lb.G)
	if err != nil {
		return nil, err
	}
	pr, err := shortcut.BuildPartial(lb.G, tr, p, tr.MaxDepth(), 1, nil)
	if err != nil {
		return nil, err
	}
	failed := p.NumParts() - pr.Shortcut.CoveredCount()
	rng := newRand(cfg.Seed + 10)
	for _, thr := range []float64{1.0, 1.5} {
		m, ok := shortcut.ExtractCertificate(lb.G, tr, p, pr, thr, attempts, rng)
		name := fmt.Sprintf("LB(%d,%d)", lbDelta, lbDiam)
		if !ok {
			t.AddRow(name, thr, failed, "none", "-", "-", false)
			continue
		}
		valid := m.Validate(lb.G) == nil
		t.AddRow(name, thr, failed, "found", m.Density(), valid, valid && m.Density() > thr)
	}

	// Soundness: planar graph, threshold at the true density bound.
	side := 9
	if cfg.Quick {
		side = 7
	}
	grid := graph.Grid(side, side)
	gp, err := partition.Singletons(grid)
	if err != nil {
		return nil, err
	}
	gtr, err := tree.FromBFS(grid, 0)
	if err != nil {
		return nil, err
	}
	gpr, err := shortcut.BuildPartial(grid, gtr, gp, 2, 0, nil)
	if err != nil {
		return nil, err
	}
	gFailed := gp.NumParts() - gpr.Shortcut.CoveredCount()
	if m, ok := shortcut.ExtractCertificate(grid, gtr, gp, gpr, minor.PlanarDensityBound, attempts, rng); ok {
		t.AddRow(fmt.Sprintf("grid %dx%d (soundness)", side, side), minor.PlanarDensityBound,
			gFailed, "found", m.Density(), m.Validate(grid) == nil, false)
	} else {
		t.AddRow(fmt.Sprintf("grid %dx%d (soundness)", side, side), minor.PlanarDensityBound,
			gFailed, "none", "-", "-", true)
	}
	return t, nil
}
