package shortcut

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// This file preserves the pre-Builder, map-based construction path
// verbatim, as test code only. It is the executable specification the flat
// Builder is tested against: BuildReference must produce the same accepted
// delta', the same covered parts, and the same canonical H edge sets as
// Builder.Build on every input (see builder_test.go), and its allocation
// profile is the baseline the Builder's allocation budget is measured
// against (TestBuilderAllocReduction, BenchmarkBuildReference).

// buildPartialReference is the original map-based BuildPartial.
func buildPartialReference(g *graph.Graph, t *tree.Rooted, p *partition.Partition, c, b int, active []bool) (*Partial, error) {
	if c < 1 {
		return nil, fmt.Errorf("shortcut: congestion threshold %d < 1", c)
	}
	if b < 0 {
		return nil, fmt.Errorf("shortcut: negative block budget %d", b)
	}
	if t.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("shortcut: tree has %d nodes, graph has %d", t.NumNodes(), g.NumNodes())
	}
	n := g.NumNodes()
	k := p.NumParts()
	isActive := func(i int) bool { return active == nil || active[i] }

	// Bottom-up sweep: S[v] maps part -> representative node; see the
	// package documentation of the Builder for the semantics.
	S := make([]map[int]int, n)
	cutAbove := make([]bool, n)
	pr := &Partial{IE: make(map[int][]PartRep), DegB: make([]int, k)}

	for idx := len(t.Order) - 1; idx >= 0; idx-- {
		v := t.Order[idx]
		sv := S[v]
		if sv == nil {
			sv = make(map[int]int, 1)
		}
		if pi := p.PartOf[v]; pi >= 0 && isActive(pi) {
			sv[pi] = v
		}
		parent := t.Parent[v]
		if parent < 0 {
			S[v] = sv
			continue
		}
		if len(sv) >= c {
			cutAbove[v] = true
			e := t.ParentEdge[v]
			pr.Overcongested = append(pr.Overcongested, e)
			reps := make([]PartRep, 0, len(sv))
			//locshort:nondeterministic-ok reps are sorted by part below; DegB increments are order-insensitive
			for part, rep := range sv {
				reps = append(reps, PartRep{Part: part, Rep: rep})
				pr.DegB[part]++
			}
			sort.Slice(reps, func(i, j int) bool { return reps[i].Part < reps[j].Part })
			pr.IE[e] = reps
			S[v] = nil
			continue
		}
		sp := S[parent]
		if sp == nil {
			S[parent] = sv
		} else {
			if len(sp) < len(sv) {
				sp, sv = sv, sp
				S[parent] = sp
			}
			//locshort:nondeterministic-ok per-key merge: distinct parts never interact, and each part resolves by a strict depth comparison
			for part, rep := range sv {
				if cur, ok := sp[part]; !ok || t.Depth[rep] < t.Depth[cur] {
					sp[part] = rep
				}
			}
		}
		S[v] = nil
	}
	sort.Ints(pr.Overcongested)

	pr.Shortcut = assembleFromCutsReference(g, t, p, cutAbove, active, b)
	return pr, nil
}

// assembleFromCutsReference is the original map-based AssembleFromCuts.
func assembleFromCutsReference(g *graph.Graph, t *tree.Rooted, p *partition.Partition, cutAbove []bool, active []bool, b int) *Shortcut {
	n := g.NumNodes()
	k := p.NumParts()
	isActive := func(i int) bool { return active == nil || active[i] }

	compRoot := make([]int, n)
	for _, v := range t.Order {
		if t.Parent[v] == -1 || cutAbove[v] {
			compRoot[v] = v
		} else {
			compRoot[v] = compRoot[t.Parent[v]]
		}
	}
	degB := make([]int, k)
	touched := make(map[[2]int]bool)
	for v := 0; v < n; v++ {
		i := p.PartOf[v]
		if i < 0 || !isActive(i) {
			continue
		}
		r := compRoot[v]
		if !cutAbove[r] {
			continue
		}
		key := [2]int{i, r}
		if !touched[key] {
			touched[key] = true
			degB[i]++
		}
	}

	s := &Shortcut{
		G:       g,
		Parts:   p,
		Tree:    t,
		H:       make([][]int, k),
		Covered: make([]bool, k),
	}
	stamp := make([]int, n)
	for v := range stamp {
		stamp[v] = -1
	}
	for i := 0; i < k; i++ {
		if !isActive(i) || degB[i] > b {
			continue
		}
		s.Covered[i] = true
		h := []int{}
		for _, u := range p.Parts[i] {
			for u != -1 && !cutAbove[u] && t.Parent[u] != -1 && stamp[u] != i {
				stamp[u] = i
				h = append(h, t.ParentEdge[u])
				u = t.Parent[u]
			}
		}
		sort.Ints(h)
		s.H[i] = h
	}
	return s
}

// runLevelReference is the original Observation 2.7 loop over the map path.
func runLevelReference(g *graph.Graph, t *tree.Rooted, p *partition.Partition, c, b, maxIter int) (*Shortcut, int, *Partial, bool, error) {
	k := p.NumParts()
	s := &Shortcut{
		G:       g,
		Parts:   p,
		Tree:    t,
		H:       make([][]int, k),
		Covered: make([]bool, k),
	}
	active := make([]bool, k)
	for i := range active {
		active[i] = true
	}
	remaining := k
	var last *Partial
	for iter := 1; iter <= maxIter; iter++ {
		pr, err := buildPartialReference(g, t, p, c, b, active)
		if err != nil {
			return nil, 0, nil, false, err
		}
		last = pr
		progress := 0
		for i := 0; i < k; i++ {
			if active[i] && pr.Shortcut.Covered[i] {
				s.Covered[i] = true
				s.H[i] = pr.Shortcut.H[i]
				active[i] = false
				progress++
			}
		}
		remaining -= progress
		if remaining == 0 {
			return s, iter, last, true, nil
		}
		if progress == 0 {
			return s, iter, last, false, nil
		}
	}
	return s, maxIter, last, false, nil
}

// BuildReference is the original sequential Build: the strictly sequential
// doubling search over the map-based level loop.
func BuildReference(g *graph.Graph, p *partition.Partition, opts Options) (*Result, error) {
	if p.NumParts() == 0 {
		return nil, fmt.Errorf("shortcut: no parts")
	}
	if opts.Certify && opts.Rng == nil {
		return nil, fmt.Errorf("shortcut: Certify requires Options.Rng")
	}
	t := opts.Tree
	if t == nil {
		var err error
		t, err = tree.FromBFS(g, graph.ChooseRoot(g))
		if err != nil {
			return nil, fmt.Errorf("shortcut: build tree: %w", err)
		}
	}
	depth := t.MaxDepth()
	if depth < 1 {
		depth = 1
	}
	cf := opts.CongestionFactor
	if cf == 0 {
		cf = 8
	}
	bf := opts.BlockFactor
	if bf == 0 {
		bf = 8
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = CeilLog2(p.NumParts()) + 2
	}
	maxDelta := opts.MaxDelta
	if maxDelta == 0 {
		maxDelta = g.NumNodes()
	}
	certAttempts := opts.CertAttempts
	if certAttempts == 0 {
		certAttempts = 8 * depth
	}

	res := &Result{TreeDepth: depth}
	start := opts.Delta
	fixed := start != 0
	if !fixed {
		start = 1
	}
	for delta := start; ; delta *= 2 {
		if !fixed && delta > maxDelta {
			return nil, fmt.Errorf("shortcut: doubling search exhausted at delta' = %d (max %d)", delta, maxDelta)
		}
		c := cf * delta * depth
		b := bf * delta
		s, iters, lastPartial, ok, err := runLevelReference(g, t, p, c, b, maxIter)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Shortcut = s
			res.Delta = delta
			res.CongestionThreshold = c
			res.BlockBudget = b
			res.Iterations = iters
			return res, nil
		}
		if opts.Certify && lastPartial != nil {
			if m, found := ExtractCertificate(g, t, p, lastPartial, float64(delta), certAttempts, opts.Rng); found {
				res.Certificates = append(res.Certificates, m)
				res.FailedDeltas = append(res.FailedDeltas, delta)
			}
		}
		if fixed {
			return res, fmt.Errorf("shortcut: delta' = %d: %w", opts.Delta, ErrDeltaTooSmall)
		}
	}
}

// perfFamily builds the perf workload named by spec, the same graphs and
// partitions as the root package's perf families.
func perfFamily(b *testing.B, spec string) (*graph.Graph, *partition.Partition) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var g *graph.Graph
	var k int
	switch spec {
	case "grid:64x64":
		g, k = graph.Grid(64, 64), 64
	case "torus:32x32":
		g, k = graph.Torus(32, 32), 32
	case "ktree:600,4":
		g, k = graph.KTree(600, 4, rng), 50
	default:
		b.Fatalf("unknown perf family %q", spec)
	}
	p, err := partition.BFSBlobs(g, k, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, p
}

// BenchmarkBuildReference measures the preserved map-based construction
// path on the perf families, the baseline the root package's
// BenchmarkBuild (the flat Builder) is compared against.
func BenchmarkBuildReference(b *testing.B) {
	for _, spec := range []string{"grid:64x64", "torus:32x32", "ktree:600,4"} {
		b.Run(spec, func(b *testing.B) {
			g, p := perfFamily(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildReference(g, p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
