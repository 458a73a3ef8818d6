package cli

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/shortcut"
)

func TestParseGraphShapes(t *testing.T) {
	tests := []struct {
		spec      string
		wantNodes int
		wantRows  bool
	}{
		{spec: "grid:4x5", wantNodes: 20},
		{spec: "torus:3x4", wantNodes: 12},
		{spec: "wheel:10", wantNodes: 10},
		{spec: "cycle:9", wantNodes: 9},
		{spec: "path:6", wantNodes: 6},
		{spec: "complete:5", wantNodes: 5},
		{spec: "ktree:12,3", wantNodes: 12},
		{spec: "random:15,20", wantNodes: 15},
		{spec: "lb:5,12", wantNodes: 174, wantRows: true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			g, rows, err := ParseGraph(tt.spec, 1)
			if err != nil {
				t.Fatalf("ParseGraph(%q) error = %v", tt.spec, err)
			}
			if g.NumNodes() != tt.wantNodes {
				t.Errorf("nodes = %d, want %d", g.NumNodes(), tt.wantNodes)
			}
			if (rows != nil) != tt.wantRows {
				t.Errorf("rows present = %v, want %v", rows != nil, tt.wantRows)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("Validate = %v", err)
			}
		})
	}
}

func TestParseGraphErrors(t *testing.T) {
	specs := []string{
		"",
		"unknown:5",
		"grid:4",       // missing dimension
		"grid:4xfive",  // non-numeric
		"wheel:",       // empty size
		"wheel:banana", // non-numeric
		"ktree:12",     // missing k
		"lb:3,100",     // deltaPrime too small for LowerBound
	}
	for _, spec := range specs {
		if _, _, err := ParseGraph(spec, 1); err == nil {
			t.Errorf("ParseGraph(%q) succeeded, want error", spec)
		}
	}
}

// TestParseGraphDegenerateSizes feeds specs that parse but ask a family
// for sizes it cannot build.
func TestParseGraphDegenerateSizes(t *testing.T) {
	for _, spec := range []string{
		"wheel:3", "wheel:2", "cycle:2", "cycle:1", "torus:2x2", "torus:1x1",
		"grid:-2x3", "ktree:3,4", "random:5,100",
		"grid:0x4", "path:0", "complete:-1", "ktree:5,0", "random:5,3", "random:0,0",
	} {
		if _, _, err := ParseGraph(spec, 1); !errors.Is(err, ErrDegenerateGraph) {
			t.Errorf("ParseGraph(%q) error = %v, want ErrDegenerateGraph", spec, err)
		}
	}
	// The smallest sizes each family accepts still build.
	for _, spec := range []string{
		"wheel:4", "cycle:3", "torus:3x3", "grid:1x1", "path:1", "complete:1",
		"ktree:2,1", "random:1,0", "random:5,4", "random:5,10",
	} {
		g, _, err := ParseGraph(spec, 1)
		if err != nil {
			t.Errorf("ParseGraph(%q) error = %v", spec, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("ParseGraph(%q): %v", spec, err)
		}
	}
}

// TestParseGraphSizeLimits feeds every family sizes over graph.MaxNodes or
// graph.MaxEdges: factor pairs whose product wraps int, and sizes just
// over each limit. Each must fail with graph.ErrTooLarge before the graph
// is allocated.
func TestParseGraphSizeLimits(t *testing.T) {
	over := graph.MaxNodes + 1
	for _, spec := range []string{
		// Products that wrap int64, and far over the node limit.
		"grid:3037000500x3037000500", "torus:4294967297x4294967297",
		"grid:70000x70000", "complete:200000", "random:4294967296,4294967295",
		"ktree:9223372036854775807,4611686018427387904",
		"lb:9223372036854775807,9223372036854775807",
		// Just over the node limit.
		fmt.Sprintf("grid:1x%d", over), fmt.Sprintf("grid:%dx1", over),
		fmt.Sprintf("torus:3x%d", graph.MaxNodes/3+1), fmt.Sprintf("wheel:%d", over),
		fmt.Sprintf("cycle:%d", over), fmt.Sprintf("path:%d", over),
		fmt.Sprintf("ktree:%d,1", over), fmt.Sprintf("random:%d,%d", over, over-1),
		"lb:5,2052",
		// Under the node limit, just over the edge limit.
		"grid:2048x2048", fmt.Sprintf("torus:3x%d", graph.MaxEdges/6+1),
		fmt.Sprintf("wheel:%d", graph.MaxEdges/2+2), "complete:2897",
		fmt.Sprintf("ktree:%d,2", graph.MaxEdges/2+2), fmt.Sprintf("random:100000,%d", graph.MaxEdges+1),
		"lb:5,2046",
		// Under both, but over the k-tree generator's clique table.
		"ktree:4000,1000",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ParseGraph(spec, 1)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, graph.ErrTooLarge) {
			t.Errorf("ParseGraph(%q) error = %v, want graph.ErrTooLarge", spec, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("ParseGraph(%q) allocated %d bytes before refusing", spec, grew)
		}
	}
}

func TestParseGraphDeterministicSeed(t *testing.T) {
	a, _, err := ParseGraph("random:20,40", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ParseGraph("random:20,40", 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for id := 0; id < a.NumEdges(); id++ {
		ea, eb := a.Edge(id), b.Edge(id)
		if ea.U != eb.U || ea.V != eb.V {
			t.Fatalf("edge %d differs between runs with the same seed", id)
		}
	}
}

func TestParsePartitionShapes(t *testing.T) {
	tests := []struct {
		graph     string
		spec      string
		wantParts int
	}{
		{graph: "grid:6x6", spec: "blobs:6", wantParts: 6},
		{graph: "grid:4x5", spec: "rows:4x5", wantParts: 4},
		{graph: "wheel:12", spec: "rim", wantParts: 2},
		{graph: "path:7", spec: "singletons", wantParts: 7},
	}
	for _, tt := range tests {
		t.Run(tt.graph+"/"+tt.spec, func(t *testing.T) {
			g, _, err := ParseGraph(tt.graph, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ParsePartition(g, tt.spec, 1)
			if err != nil {
				t.Fatalf("ParsePartition(%q) error = %v", tt.spec, err)
			}
			if p.NumParts() != tt.wantParts {
				t.Errorf("parts = %d, want %d", p.NumParts(), tt.wantParts)
			}
		})
	}
}

func TestParsePartitionErrors(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, spec := range []string{
		"",
		"unknown:3",
		"blobs:",   // empty size
		"blobs:0",  // out of range
		"blobs:17", // more parts than nodes
		"rows:4",   // missing dimension
		"rows:5x5", // does not match 16 nodes
	} {
		if _, err := ParsePartition(g, spec, 1); err == nil {
			t.Errorf("ParsePartition(%q) succeeded, want error", spec)
		}
	}
	// Removing a star's center leaves isolated leaves: the rim part is
	// disconnected and must be rejected.
	star := graph.Star(5)
	if _, err := ParsePartition(star, "rim", 1); err == nil {
		t.Error(`ParsePartition("rim") on a star succeeded, want error (disconnected rim)`)
	}
}

// TestParsePartitionRowsFactors is the regression table for a spec that
// crashed the daemon: GridRows compared the product of the two factors
// with the node count, so -1 x -4 passed on a 4-node grid and sized a
// slice from -1. Every factor pair whose product is not an honest R x C
// with R, C >= 1 must be an error, never a panic.
func TestParsePartitionRowsFactors(t *testing.T) {
	g := graph.Grid(2, 2)
	for _, spec := range []string{
		"rows:-1x-4",
		"rows:-2x-2",
		"rows:0x4",
		"rows:4x0",
		"rows:4x-1",
		"rows:-4x1",
		// 2^62+1 times 4 wraps to 4 in 64-bit arithmetic.
		"rows:4611686018427387905x4",
		"rows:4x4611686018427387905",
	} {
		if _, err := ParsePartition(g, spec, 0); err == nil {
			t.Errorf("ParsePartition(grid:2x2, %q) succeeded, want error", spec)
		}
	}
	for _, spec := range []string{"rows:2x2", "rows:1x4", "rows:4x1"} {
		if _, err := ParsePartition(g, spec, 0); err != nil {
			t.Errorf("ParsePartition(grid:2x2, %q): %v", spec, err)
		}
	}
}

// TestBuildOptionsRoundTrip renders Options through the key table that
// ParseBuildOptions reads (buildOptionKeys and buildOptionField) and
// parses them back: each key must name a field of its own, so no option is
// dropped or set twice.
func TestBuildOptionsRoundTrip(t *testing.T) {
	cases := []shortcut.Options{
		{},
		{Delta: 4},
		{Delta: 8, MaxDelta: 64, CongestionFactor: 8, BlockFactor: 8, MaxIterations: 12},
		{CongestionFactor: 16},
		{Delta: 1, MaxDelta: 2, CongestionFactor: 3, BlockFactor: 4, MaxIterations: 5},
	}
	for _, o := range cases {
		parts := make([]string, len(buildOptionKeys))
		for i, k := range buildOptionKeys {
			f := buildOptionField(&o, k)
			if f == nil {
				t.Fatalf("key %q names no field", k)
			}
			parts[i] = fmt.Sprintf("%s=%d", k, *f)
		}
		s := strings.Join(parts, ",")
		got, err := ParseBuildOptions(s)
		if err != nil {
			t.Fatalf("ParseBuildOptions(%q) error = %v", s, err)
		}
		if got != o {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, o)
		}
	}
}

func TestParseBuildOptionsForms(t *testing.T) {
	// The empty string is the zero options (paper defaults); any key
	// order and any subset of the keys are fine.
	for s, want := range map[string]shortcut.Options{
		"":                                     {},
		"delta=0,maxdelta=0,cf=0,bf=0,iters=0": {},
		"bf=2, delta=3":                        {BlockFactor: 2, Delta: 3},
		"cf=16":                                {CongestionFactor: 16},
		"delta=8,maxdelta=64,cf=8,bf=8,iters=12": {
			Delta: 8, MaxDelta: 64, CongestionFactor: 8, BlockFactor: 8, MaxIterations: 12},
	} {
		if got, err := ParseBuildOptions(s); err != nil || got != want {
			t.Errorf("ParseBuildOptions(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, bad := range []string{
		"delta",           // not key=value
		"delta=x",         // non-numeric
		"delta=-1",        // negative
		"zeta=1",          // unknown key
		"delta=1,delta=2", // duplicate
	} {
		if _, err := ParseBuildOptions(bad); err == nil {
			t.Errorf("ParseBuildOptions(%q) succeeded, want error", bad)
		}
	}
}

// TestParseBuildOptionsBounds puts every option at its bound and one past
// it: delta and maxdelta stop at graph.MaxNodes, cf, bf and iters at
// MaxBuildFactor, so no level's c = cf·delta'·D or b = bf·delta' can wrap.
func TestParseBuildOptionsBounds(t *testing.T) {
	for _, c := range []struct {
		key   string
		limit int
	}{
		{"delta", graph.MaxNodes},
		{"maxdelta", graph.MaxNodes},
		{"cf", MaxBuildFactor},
		{"bf", MaxBuildFactor},
		{"iters", MaxBuildFactor},
	} {
		at := fmt.Sprintf("%s=%d", c.key, c.limit)
		o, err := ParseBuildOptions(at)
		if err != nil {
			t.Errorf("ParseBuildOptions(%q): %v", at, err)
		} else if got := *buildOptionField(&o, c.key); got != c.limit {
			t.Errorf("ParseBuildOptions(%q) sets %s = %d", at, c.key, got)
		}
		past := fmt.Sprintf("%s=%d", c.key, c.limit+1)
		if _, err := ParseBuildOptions(past); err == nil || !strings.Contains(err.Error(), c.key+" ") {
			t.Errorf("ParseBuildOptions(%q) = %v, want an error naming %s", past, err, c.key)
		}
	}
	for _, bad := range []string{"delta=576460752303423489,cf=16", "delta=2305843009213693952,cf=4"} {
		if _, err := ParseBuildOptions(bad); err == nil || !strings.Contains(err.Error(), "delta ") {
			t.Errorf("ParseBuildOptions(%q) = %v, want an error naming delta", bad, err)
		}
	}
	// Every options string the tests, examples and docs use still parses.
	for _, ok := range []string{
		"", "delta=1", "delta=2", "delta=3", "delta=4", "bf=2, delta=3",
		"delta=0,maxdelta=0,cf=0,bf=0,iters=0",
		"delta=8,maxdelta=64,cf=8,bf=8,iters=12", "cf=16",
	} {
		if _, err := ParseBuildOptions(ok); err != nil {
			t.Errorf("ParseBuildOptions(%q): %v", ok, err)
		}
	}
}

// parsePartitionAllocs pins a blobs spec: the Partition, its PartOf
// (whose spare capacity backs the parts) and its Parts header. The
// generator, the seed permutation and the flood queues are pooled; with a
// fresh generator, Perm's array and an allocated queue it read 7.
const parsePartitionAllocs = 3

// ParsePartition is on every cold build's path: blobs parts share one
// exact-size backing array and connectivity checks share one scratch, so
// the allocation count stays flat in the number of parts. The race
// detector drops pooled scratch, so under -race the count is only logged.
func TestParsePartitionAllocs(t *testing.T) {
	g := graph.Grid(64, 64)
	for _, spec := range []string{"blobs:32", "blobs:256"} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ParsePartition(g, spec, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ParsePartition(grid:64x64, %s) = %v allocs", spec, allocs)
		if !raceEnabled && allocs > parsePartitionAllocs {
			t.Errorf("ParsePartition(grid:64x64, %s) = %v allocs, want <= %d", spec, allocs, parsePartitionAllocs)
		}
	}
}
