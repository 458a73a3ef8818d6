package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// diameterAllPairs is the reference diameter: one BFS per node.
func diameterAllPairs(g *Graph) (int, error) {
	if !Connected(g) {
		return 0, ErrDisconnected
	}
	diam := 0
	var scratch BFSResult
	for v := 0; v < g.NumNodes(); v++ {
		if ecc, _ := EccentricityInto(&scratch, g, v); ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// doubleSweepReference is the double sweep over the adjacency lists:
// ecc(0), then the eccentricity of the smallest-index farthest node.
func doubleSweepReference(g *Graph) (int, error) {
	if !Connected(g) {
		return 0, ErrDisconnected
	}
	if g.NumNodes() <= 1 {
		return 0, nil
	}
	_, far := Eccentricity(g, 0)
	ecc, _ := Eccentricity(g, far)
	return ecc, nil
}

// checkDiameter compares Diameter and DiameterApprox with the references.
func checkDiameter(t *testing.T, name string, g *Graph) {
	t.Helper()
	want, wantErr := diameterAllPairs(g)
	got, err := Diameter(g)
	if !errors.Is(err, wantErr) || got != want {
		t.Errorf("%s: Diameter = %d, %v; all-pairs = %d, %v", name, got, err, want, wantErr)
	}
	wantE, wantErr := doubleSweepReference(g)
	lo, hi, err := DiameterApprox(g)
	if !errors.Is(err, wantErr) || lo != wantE || hi != 2*wantE {
		t.Errorf("%s: DiameterApprox = [%d,%d], %v; reference sweep = %d, %v", name, lo, hi, err, wantE, wantErr)
	}
}

func TestDiameterMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lb, err := LowerBound(6, 16)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		g    *Graph
	}{
		{"empty", New(0)},
		{"grid 17x23", Grid(17, 23)},
		{"torus 12x15", Torus(12, 15)},
		{"wheel 40", Wheel(40)},
		{"path 57", Path(57)},
		{"cycle 41", Cycle(41)},
		{"complete 9", Complete(9)},
		{"star 20", Star(20)},
		{"caterpillar 9x3", Caterpillar(9, 3)},
		{"ktree 200,3", KTree(200, 3, rng)},
		{"lowerbound 6,16", lb.G},
		{"two paths", disjointPaths(6, 7)},
	}
	for _, f := range families {
		checkDiameter(t, f.name, f.g)
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		m := n - 1 + rng.Intn(2*n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		checkDiameter(t, "random", RandomConnected(n, m, rng))
	}
}

// disjointPaths returns two node-disjoint paths of a and b nodes.
func disjointPaths(a, b int) *Graph {
	g := New(a + b)
	for v := 1; v < a; v++ {
		g.AddEdge(v-1, v)
	}
	for v := a + 1; v < a+b; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

// FuzzDiameter checks the CSR diameter routines against the references on
// small arbitrary multigraphs, connected or not: byte 0 picks the node
// count, each following byte pair an edge (self-loops are skipped).
func FuzzDiameter(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{4, 0, 1, 2, 3})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 33
			data = data[1:]
		}
		g := New(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				g.AddEdge(u, v)
			}
		}
		checkDiameter(t, "fuzz", g)
	})
}
