package locshort_test

import (
	"math/rand"
	"testing"

	"locshort"
)

// TestFacadeEndToEnd drives the full pipeline through the public API only:
// generate, partition, build, measure, install routing, aggregate, and run
// the two headline algorithms — the integration path a downstream user
// takes.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := locshort.Grid(12, 12)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	p, err := locshort.BFSBlobs(g, 12, rng)
	if err != nil {
		t.Fatalf("BFSBlobs = %v", err)
	}
	res, err := locshort.Build(g, p, locshort.BuildOptions{})
	if err != nil {
		t.Fatalf("Build = %v", err)
	}
	q := locshort.Measure(res.Shortcut)
	if q.CoveredParts != 12 {
		t.Fatalf("covered %d parts, want 12", q.CoveredParts)
	}
	if q.Congestion > res.CongestionThreshold*res.Iterations {
		t.Errorf("congestion %d above bound", q.Congestion)
	}

	routing, err := locshort.NewPARouting(res.Shortcut)
	if err != nil {
		t.Fatalf("NewPARouting = %v", err)
	}
	values := make([]locshort.Payload, g.NumNodes())
	want := make([]int64, p.NumParts())
	for v := range values {
		values[v] = locshort.Payload{int64(v), 0, 0}
		want[p.PartOf[v]] += int64(v)
	}
	pa, err := locshort.PartwiseAggregate(g, routing, locshort.OpSum, values, 3, true, 8192)
	if err != nil {
		t.Fatalf("PartwiseAggregate = %v", err)
	}
	for i := range want {
		if pa.PartResult[i][0] != want[i] {
			t.Errorf("part %d sum = %d, want %d", i, pa.PartResult[i][0], want[i])
		}
	}

	// Min cut on the unit-weight graph (MinCut counts edge cardinality;
	// Stoer-Wagner must see the same unit capacities).
	sw, err := locshort.StoerWagner(g)
	if err != nil {
		t.Fatalf("StoerWagner = %v", err)
	}
	cut, err := locshort.MinCut(g, locshort.MinCutOptions{
		Seed: 7,
		MST:  locshort.MSTOptions{Provider: locshort.ProviderCentral},
	})
	if err != nil {
		t.Fatalf("MinCut = %v", err)
	}
	if cut.Value != int64(sw) {
		t.Errorf("MinCut %d != Stoer-Wagner %v", cut.Value, sw)
	}

	locshort.RandomizeWeights(g, rng)
	_, kruskal := locshort.Kruskal(g)
	mst, err := locshort.MST(g, locshort.MSTOptions{Provider: locshort.ProviderCentralAdaptive, Seed: 5})
	if err != nil {
		t.Fatalf("MST = %v", err)
	}
	if d := mst.Weight - kruskal; d > 1e-9 || d < -1e-9 {
		t.Errorf("MST weight %v != Kruskal %v", mst.Weight, kruskal)
	}
}

// TestFacadeCustomProtocol exercises the public simulator surface with a
// minimal broadcast protocol (the examples/protocol pattern).
func TestFacadeCustomProtocol(t *testing.T) {
	g := locshort.Star(8)
	got := make([]int64, g.NumNodes())
	procs := make([]locshort.Proc, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		v := v
		procs[v] = locshort.ProcFunc(func(ctx *locshort.NodeContext) {
			if ctx.Node == 0 && ctx.Round == 0 {
				ctx.Broadcast(locshort.Msg{A: 42})
			}
			for _, in := range ctx.In {
				got[v] = in.Msg.A
			}
			if ctx.Round >= 1 {
				ctx.Halt()
			}
		})
	}
	net, err := locshort.NewNetwork(g, procs)
	if err != nil {
		t.Fatalf("NewNetwork = %v", err)
	}
	if _, err := net.Run(8); err != nil {
		t.Fatalf("Run = %v", err)
	}
	for v := 1; v < g.NumNodes(); v++ {
		if got[v] != 42 {
			t.Errorf("leaf %d received %d, want 42", v, got[v])
		}
	}
}

// TestFacadeMethods covers the graph and simulator methods the facade
// re-exports that no code path in the module calls: Graph.HasEdge, Other
// and SetWeight, NodeContext.EdgeWeight and SendTo, and Network.RunFor and
// Halted. Node 0 of a path 0-1-2 sends its first edge's weight to node 1,
// which passes it on and halts; RunFor runs exactly the rounds asked for.
func TestFacadeMethods(t *testing.T) {
	g := locshort.Path(3)
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge disagrees with the path 0-1-2")
	}
	e01 := g.Neighbors(0)[0].Edge
	if g.Other(e01, 0) != 1 || g.Other(e01, 1) != 0 {
		t.Fatalf("Other(%d, ·) does not name the edge's other end", e01)
	}
	g.SetWeight(e01, 2.5)
	var got [3]int64
	procs := make([]locshort.Proc, 3)
	for v := range procs {
		procs[v] = locshort.ProcFunc(func(ctx *locshort.NodeContext) {
			if v == 0 && ctx.Round == 0 {
				ctx.SendTo(1, locshort.Msg{A: int64(10 * ctx.EdgeWeight(e01))})
			}
			for _, in := range ctx.In {
				got[v] = in.Msg.A
				if v == 1 {
					ctx.SendTo(2, in.Msg)
					ctx.Halt()
				}
			}
		})
	}
	net, err := locshort.NewNetwork(g, procs)
	if err != nil {
		t.Fatalf("NewNetwork = %v", err)
	}
	if st := net.RunFor(1); st.Rounds != 1 || net.Halted(1) {
		t.Fatalf("after RunFor(1): %d rounds, node 1 halted %v; want 1 round, not halted", st.Rounds, net.Halted(1))
	}
	if st := net.RunFor(2); st.Rounds != 3 {
		t.Fatalf("RunFor continues the round count: %d, want 3", st.Rounds)
	}
	if got != [3]int64{0, 25, 25} || !net.Halted(1) || net.Halted(0) || net.Halted(2) {
		t.Errorf("received %v, halted %v %v %v; want [0 25 25], only node 1 halted",
			got, net.Halted(0), net.Halted(1), net.Halted(2))
	}
}

// TestFacadeCertify drives the certifying path through the public API.
func TestFacadeCertify(t *testing.T) {
	lb, err := locshort.LowerBound(6, 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := locshort.NewPartition(lb.G, lb.Rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := locshort.Build(lb.G, p, locshort.BuildOptions{
		Delta:            1,
		CongestionFactor: 1,
		BlockFactor:      1,
		MaxIterations:    3,
		Certify:          true,
		CertAttempts:     400,
		Rng:              rand.New(rand.NewSource(5)),
	})
	if err == nil {
		t.Fatal("reduced-constant Build succeeded unexpectedly")
	}
	if len(res.Certificates) == 0 {
		t.Fatal("no certificate extracted")
	}
	m := res.Certificates[0]
	if err := m.Validate(lb.G); err != nil {
		t.Errorf("certificate invalid: %v", err)
	}
	if m.Density() <= 1 {
		t.Errorf("certificate density %v <= 1", m.Density())
	}
}

// TestFacadeLowerBoundQuality checks Lemma 3.2 through the public API.
func TestFacadeLowerBoundQuality(t *testing.T) {
	lb, err := locshort.LowerBound(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := locshort.NewPartition(lb.G, lb.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (*locshort.Shortcut, error){
		func() (*locshort.Shortcut, error) {
			r, err := locshort.Build(lb.G, p, locshort.BuildOptions{})
			if err != nil {
				return nil, err
			}
			return r.Shortcut, nil
		},
		func() (*locshort.Shortcut, error) { return locshort.TrivialShortcut(lb.G, p, nil) },
		func() (*locshort.Shortcut, error) { return locshort.EmptyShortcut(lb.G, p), nil },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if q := locshort.Measure(s); float64(q.Value()) < lb.QualityLowerBound {
			t.Errorf("quality %d beats the Lemma 3.2 bound %v", q.Value(), lb.QualityLowerBound)
		}
	}
}

// TestFacadeSubgraphConnectivity covers the E12 application via the facade.
func TestFacadeSubgraphConnectivity(t *testing.T) {
	g := locshort.Wheel(32)
	in := make([]bool, g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		in[id] = e.U != 0 && e.V != 0 // rim only
	}
	in[len(in)-1] = false // cut the rim once: still one rim component? no: path
	res, err := locshort.SubgraphComponents(g, in, locshort.MSTOptions{Seed: 3})
	if err != nil {
		t.Fatalf("SubgraphComponents = %v", err)
	}
	want := locshort.ReferenceSubgraphComponents(g, in)
	if !locshort.SameComponents(res.Label, want) {
		t.Error("labels disagree with reference")
	}
}
