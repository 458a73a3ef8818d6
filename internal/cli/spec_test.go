package cli

import (
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

func TestBuildOptionsRoundTrip(t *testing.T) {
	cases := []shortcut.Options{
		{},
		{Delta: 4},
		{Delta: 8, MaxDelta: 64, CongestionFactor: 8, BlockFactor: 8, MaxIterations: 12},
		{CongestionFactor: 16},
	}
	for _, o := range cases {
		s := FormatBuildOptions(o)
		got, err := ParseBuildOptions(s)
		if err != nil {
			t.Fatalf("ParseBuildOptions(%q) error = %v", s, err)
		}
		if got != o {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, o)
		}
		// Formatting is canonical: a second round trip is a fixed point.
		if s2 := FormatBuildOptions(got); s2 != s {
			t.Errorf("format not canonical: %q then %q", s, s2)
		}
	}
}

func TestParseBuildOptionsForms(t *testing.T) {
	// Empty string is the zero options (paper defaults).
	o, err := ParseBuildOptions("")
	if err != nil || o != (shortcut.Options{}) {
		t.Errorf("empty spec = %+v, %v", o, err)
	}
	// Any key order and subsets are fine.
	o, err = ParseBuildOptions("bf=2, delta=3")
	if err != nil || o.BlockFactor != 2 || o.Delta != 3 {
		t.Errorf("subset spec = %+v, %v", o, err)
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

// ParsePartition is on every cold build's path: blobs parts share one
// exact-size backing array and connectivity checks share one scratch, so
// the allocation count stays flat in the number of parts.
func TestParsePartitionAllocs(t *testing.T) {
	g := graph.Grid(64, 64)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParsePartition(g, "blobs:32", 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 15 {
		t.Errorf("ParsePartition(grid:64x64, blobs:32) = %v allocs, want <= 15", allocs)
	}
}
