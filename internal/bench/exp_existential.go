package bench

import (
	"fmt"

	"locshort/internal/graph"
	"locshort/internal/minor"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// minorGenusBound is Lemma 3.3's genus bound, kept local for readability.
func minorGenusBound(g int) float64 { return minor.GenusDensityBound(g) }

func init() {
	register(Experiment{ID: "E1", Title: "Theorem 3.1: partial shortcuts exist at c=8δD, b=8δ", Run: runE1})
	register(Experiment{ID: "E2", Title: "Theorem 1.2 via Obs. 2.6/2.7: full shortcuts", Run: runE2})
	register(Experiment{ID: "E4", Title: "Lemma 3.2 / Figure 3.2: Ω(δD) lower bound", Run: runE4})
	register(Experiment{ID: "E5", Title: "Corollaries 1.4 & 3.4: genus and treewidth bounds", Run: runE5})
}

// runE1 checks, per family, that a single partial construction at the
// paper's parameters covers at least half the parts with congestion < c and
// block number <= b+1.
func runE1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Theorem 3.1 — tree-restricted 8δD-congestion 8δ-block partial shortcuts",
		Claim: "every graph with minor density δ admits a partial shortcut covering ≥ k/2 parts with congestion < 8δD and ≤ 8δ+1 blocks",
		Columns: []string{"family", "n", "depth", "δ", "k", "c=8δD", "b=8δ",
			"covered", "≥k/2", "congestion", "<c", "blocks", "≤b+1"},
	}
	fams, err := standardFamilies(cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range fams {
		tr, err := tree.Shared(f.g)
		if err != nil {
			return nil, err
		}
		depth := tr.MaxDepth()
		c := 8 * f.deltaBound * depth
		b := 8 * f.deltaBound
		pr, err := shortcut.BuildPartial(f.g, tr, f.p, c, b, nil)
		if err != nil {
			return nil, err
		}
		q := shortcut.Measure(pr.Shortcut)
		k := f.p.NumParts()
		covered := pr.Shortcut.CoveredCount()
		t.AddRow(f.name, f.g.NumNodes(), depth, f.deltaBound, k, c, b,
			covered, 2*covered >= k, q.Congestion, q.Congestion < c,
			q.MaxBlocks, q.MaxBlocks <= b+1)
	}
	return t, nil
}

// runE2 runs the full builder (doubling search + Observation 2.7 loop) and
// checks the Theorem 1.2 quality shape.
func runE2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Theorem 1.2 — full shortcuts with congestion O(δD log n), dilation O(δD)",
		Claim: "the Obs. 2.7 loop covers all parts in ≤ ⌈log₂k⌉+2 iterations; congestion ≤ c·iters, dilation ≤ (b+1)(2D+1)",
		Columns: []string{"family", "n", "depth", "δ'", "iters", "≤log₂k+2",
			"congestion", "c·iters", "ok", "dilation", "(b+1)(2D+1)", "ok"},
	}
	fams, err := standardFamilies(cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range fams {
		res, err := shortcut.Build(f.g, f.p, shortcut.Options{})
		if err != nil {
			return nil, err
		}
		q := shortcut.Measure(res.Shortcut)
		congBound := res.CongestionThreshold * res.Iterations
		dilBound := (res.BlockBudget + 1) * (2*res.TreeDepth + 1)
		iterBound := ceilLog2(f.p.NumParts()) + 2
		t.AddRow(f.name, f.g.NumNodes(), res.TreeDepth, res.Delta,
			res.Iterations, res.Iterations <= iterBound,
			q.Congestion, congBound, q.Congestion <= congBound,
			q.Dilation, dilBound, q.Dilation <= dilBound)
	}
	return t, nil
}

// runE4 reproduces Figure 3.2: on the lower-bound topology, every
// algorithm's measured quality must respect (δ'-3)D'/6, and the theorem
// construction must stay within its own O(δD log) upper bound.
func runE4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Lemma 3.2 — lower bound Ω(δD) on the Figure 3.2 topology",
		Claim: "every shortcut for the row parts has quality ≥ (δ'-3)D'/6",
		Note: "diameter note: the paper claims diameter ≤ 1.5D+1 for this topology, but its argument bounds " +
			"the middle-node eccentricity; the construction's true diameter is ≈2.5D (measured column). " +
			"This does not affect the lower bound. 'quality' = congestion + dilation.",
		Columns: []string{"δ'", "D'", "n", "k", "diam", "bound (δ'-3)D'/6",
			"theorem quality", "≥bound", "trivial quality", "≥bound", "empty quality", "≥bound"},
	}
	params := [][2]int{{5, 12}, {5, 20}, {6, 24}, {7, 28}}
	if cfg.Quick {
		params = [][2]int{{5, 12}, {6, 16}}
	}
	for _, pp := range params {
		lb, err := graph.LowerBound(pp[0], pp[1])
		if err != nil {
			return nil, err
		}
		p, err := partition.New(lb.G, lb.Rows)
		if err != nil {
			return nil, err
		}
		diam, err := graph.Diameter(lb.G)
		if err != nil {
			return nil, err
		}
		bound := lb.QualityLowerBound

		res, err := shortcut.Build(lb.G, p, shortcut.Options{})
		if err != nil {
			return nil, err
		}
		qTheorem := shortcut.Measure(res.Shortcut).Value()

		triv, err := shortcut.Trivial(lb.G, p, nil)
		if err != nil {
			return nil, err
		}
		qTrivial := shortcut.Measure(triv).Value()

		qEmpty := shortcut.Measure(shortcut.NewEmpty(lb.G, p)).Value()

		t.AddRow(pp[0], pp[1], lb.G.NumNodes(), p.NumParts(), diam, bound,
			qTheorem, float64(qTheorem) >= bound,
			qTrivial, float64(qTrivial) >= bound,
			qEmpty, float64(qEmpty) >= bound)
	}
	return t, nil
}

// runE5 instantiates Theorem 3.1 for genus and treewidth families and
// reports quality normalized by the corollary bounds.
func runE5(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Corollaries 1.4 & 3.4 — shortcuts for genus-g and treewidth-k graphs",
		Claim: "quality O~(√g·D) for genus g and O~(kD) for treewidth k follow by plugging Lemma 3.3 into Theorem 3.1",
		Note: "norm = quality/(bound·depth): the corollaries assert this stays O~(1) as the family parameter grows; " +
			"the verdict checks it against the explicit constant budget 25·log₂n from Obs. 2.6/2.7.",
		Columns: []string{"family", "param", "δ bound", "n", "depth",
			"quality", "norm q/(bound·D)", "budget 25·log₂n", "within"},
	}
	type fam struct {
		name  string
		param string
		g     *graph.Graph
		bound float64
	}
	var fams []fam
	torusSides := []int{10, 14, 18}
	genusCounts := []int{1, 2, 4, 8}
	genusSide := 8
	ktreeKs := []int{2, 3, 4, 6, 8}
	ktreeN := 240
	if cfg.Quick {
		torusSides = []int{8}
		genusCounts = []int{1, 2}
		genusSide = 5
		ktreeKs = []int{2, 4}
		ktreeN = 60
	}
	for _, s := range torusSides {
		fams = append(fams, fam{
			name:  fmt.Sprintf("torus %dx%d", s, s),
			param: "g=1",
			g:     graph.Torus(s, s),
			bound: 5, // ceil((3+sqrt(33))/2): Lemma 3.3 with g=1
		})
	}
	for _, c := range genusCounts {
		fams = append(fams, fam{
			name:  fmt.Sprintf("torus-chain %d×(%dx%d)", c, genusSide, genusSide),
			param: fmt.Sprintf("g=%d", c),
			g:     graph.TorusChain(c, genusSide),
			bound: minorGenusBound(c),
		})
	}
	rngSeed := cfg.Seed + 5
	for _, k := range ktreeKs {
		fams = append(fams, fam{
			name:  fmt.Sprintf("%d-tree n=%d", k, ktreeN),
			param: fmt.Sprintf("k=%d", k),
			g:     graph.KTree(ktreeN, k, newRand(rngSeed+int64(k))),
			bound: float64(k),
		})
	}
	for _, f := range fams {
		p, err := partition.BFSBlobs(f.g, isqrt(f.g.NumNodes()), newRand(cfg.Seed+int64(len(f.name))))
		if err != nil {
			return nil, err
		}
		res, err := shortcut.Build(f.g, p, shortcut.Options{})
		if err != nil {
			return nil, err
		}
		q := shortcut.Measure(res.Shortcut).Value()
		logn := ceilLog2(f.g.NumNodes())
		// The corollary's hidden constant folds the paper's explicit ones:
		// 8δ(2D+1) dilation + 8δD·log₂k congestion ≤ 25·bound·D·log₂n.
		norm := float64(q) / (f.bound * float64(res.TreeDepth))
		budget := 25 * float64(logn)
		t.AddRow(f.name, f.param, f.bound, f.g.NumNodes(), res.TreeDepth,
			q, norm, budget, norm <= budget)
	}
	return t, nil
}
