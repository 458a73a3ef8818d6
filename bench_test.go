// Repository-level benchmarks: one benchmark per experiment of
// EXPERIMENTS.md (regenerating its table in quick mode), plus
// micro-benchmarks of the core operations. Run with
//
//	go test -bench=. -benchmem
//
// Full-size experiment tables come from cmd/shortcutbench.
package locshort_test

import (
	"math/rand"
	"testing"

	"locshort"
	"locshort/internal/bench"
)

// benchExperiment runs a registered experiment in quick mode b.N times and
// fails on any bound violation.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(bench.Config{Quick: true, Seed: 1})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if v := tab.Violations(); len(v) > 0 {
			b.Fatalf("%s: bound violated: %v", id, v[0])
		}
	}
}

func BenchmarkE1_Theorem31Partial(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2_Theorem12Full(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3_Theorem15Distributed(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4_Lemma32LowerBound(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5_GenusTreewidth(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6_MST(b *testing.B)                   { benchExperiment(b, "E6") }
func BenchmarkE7_MinCut(b *testing.B)                { benchExperiment(b, "E7") }
func BenchmarkE8_PartwiseAggregation(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9_MinorDensity(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10_Certificates(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11_BeyondMinorClosed(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_SubgraphConnectivity(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13_Bridges(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkA1_CongestionThreshold(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkA2_SchedulingAblation(b *testing.B)    { benchExperiment(b, "A2") }
func BenchmarkA3_DetectionAblation(b *testing.B)     { benchExperiment(b, "A3") }
func BenchmarkA4_RootChoiceAblation(b *testing.B)    { benchExperiment(b, "A4") }

// Core-operation benchmarks on the perf families grid:64x64, torus:32x32
// and ktree:600,4, graphs cmd/locshortbench's shortcut.build_* panels also
// time (on blobs:32 partitions of their own). grid:64x64 is the
// acceptance family for the flat Builder's allocation budget: run with
//
//	go test -bench BenchmarkBuild -benchmem
//
// and compare allocs/op against the CI allocs gates (BenchmarkBuild ≤ 7,
// BenchmarkMeasure ≤ 8).

// perfFamily builds one of the large benchmark workloads at seed 1.
func perfFamily(b *testing.B, spec string) (*locshort.Graph, *locshort.Partition) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var g *locshort.Graph
	var k int
	switch spec {
	case "grid:64x64":
		g, k = locshort.Grid(64, 64), 64
	case "torus:32x32":
		g, k = locshort.Torus(32, 32), 32
	case "ktree:600,4":
		g, k = locshort.KTree(600, 4, rng), 50
	default:
		b.Fatalf("unknown perf family %q", spec)
	}
	p, err := locshort.BFSBlobs(g, k, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, p
}

var perfFamilySpecs = []string{"grid:64x64", "torus:32x32", "ktree:600,4"}

// BenchmarkBuild measures the full Theorem 3.1 construction (doubling
// search included) on a reused Builder — the service layer's cold-build
// configuration. One build before the timer sizes the Builder's scratch,
// as a server's first cold build does, so allocs/op is the per-build cost
// even at -benchtime 20x; CI fails above 7. Marked //locshort:hotpath so
// the CI bench smoke reports its allocs/op (it drives the Builder's
// hotpath-annotated stage funcs).
//
//locshort:hotpath
func BenchmarkBuild(b *testing.B) {
	for _, spec := range perfFamilySpecs {
		b.Run(spec, func(b *testing.B) {
			g, p := perfFamily(b, spec)
			bld := locshort.NewShortcutBuilder()
			if _, err := bld.Build(g, p, locshort.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bld.Build(g, p, locshort.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasure measures shortcut quality measurement (congestion,
// dilation, blocks) on a prebuilt shortcut. One call before the timer
// sizes the pooled measurer, as the first cold build does in a server, so
// allocs/op is the steady state even at -benchtime 1x; CI fails above 8.
//
//locshort:hotpath
func BenchmarkMeasure(b *testing.B) {
	for _, spec := range perfFamilySpecs {
		b.Run(spec, func(b *testing.B) {
			g, p := perfFamily(b, spec)
			res, err := locshort.Build(g, p, locshort.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			locshort.Measure(res.Shortcut)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				locshort.Measure(res.Shortcut)
			}
		})
	}
}

// BenchmarkAggregate measures one part-wise aggregation round over
// installed routing — the operation the shortcut amortizes.
func BenchmarkAggregate(b *testing.B) {
	for _, spec := range perfFamilySpecs {
		b.Run(spec, func(b *testing.B) {
			g, p := perfFamily(b, spec)
			res, err := locshort.Build(g, p, locshort.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			routing, err := locshort.NewPARouting(res.Shortcut)
			if err != nil {
				b.Fatal(err)
			}
			values := make([]locshort.Payload, g.NumNodes())
			for v := range values {
				values[v] = locshort.Payload{1, 1, 1}
			}
			maxRounds := 64*g.NumNodes() + 4096
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := locshort.PartwiseAggregate(g, routing, locshort.OpSum, values, int64(i), true, maxRounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks of the core operations.

func BenchmarkCoreBuildShortcutGrid(b *testing.B) {
	g := locshort.Grid(24, 24)
	p, err := locshort.BFSBlobs(g, 24, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.Build(g, p, locshort.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreBuildPartialLB(b *testing.B) {
	lb, err := locshort.LowerBound(6, 24)
	if err != nil {
		b.Fatal(err)
	}
	p, err := locshort.NewPartition(lb.G, lb.Rows)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := locshort.BFSTree(lb.G, locshort.ChooseRoot(lb.G))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.BuildPartial(lb.G, tr, p, tr.MaxDepth(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreMeasureQuality(b *testing.B) {
	g := locshort.Grid(20, 20)
	p, err := locshort.BFSBlobs(g, 20, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := locshort.Build(g, p, locshort.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locshort.Measure(res.Shortcut)
	}
}

func BenchmarkCoreGreedyDenseMinor(b *testing.B) {
	g := locshort.Torus(9, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locshort.GreedyDenseMinor(g, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkDistBFSTree(b *testing.B) {
	g := locshort.Grid(20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.BuildBFSTree(g, 16*g.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistPartwiseAggregate(b *testing.B) {
	g := locshort.Wheel(512)
	p, err := locshort.WheelRim(g)
	if err != nil {
		b.Fatal(err)
	}
	res, err := locshort.Build(g, p, locshort.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	routing, err := locshort.NewPARouting(res.Shortcut)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]locshort.Payload, g.NumNodes())
	for v := range values {
		values[v] = locshort.Payload{1, 0, 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.PartwiseAggregate(g, routing, locshort.OpSum, values, int64(i), true, 64*512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistConstructGrid(b *testing.B) {
	g := locshort.Grid(12, 12)
	p, err := locshort.BFSBlobs(g, 12, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.Construct(g, p, locshort.ConstructOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistMSTWheel(b *testing.B) {
	g := locshort.Wheel(256)
	locshort.RandomizeWeights(g, rand.New(rand.NewSource(4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locshort.MST(g, locshort.MSTOptions{
			Provider: locshort.ProviderCentralAdaptive, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
