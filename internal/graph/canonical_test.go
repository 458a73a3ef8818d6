package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestCanonical: Canonical returns a canonical graph with the same
// encoding, node IDs and edge multiset, g itself when g is canonical
// already, and stores −0 weights as +0.
func TestCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range map[string]*Graph{
		"grid":   Grid(5, 6),
		"torus":  Torus(5, 6),
		"cycle":  Cycle(9),
		"random": RandomConnected(40, 90, rng),
		"ktree":  KTree(30, 3, rng),
	} {
		c := Canonical(g)
		if !IsCanonical(c) {
			t.Errorf("%s: Canonical is not canonical", name)
		}
		if IsCanonical(g) != (c == g) {
			t.Errorf("%s: IsCanonical %v, but Canonical returned the same graph: %v", name, IsCanonical(g), c == g)
		}
		if !bytes.Equal(c.AppendCanonical(nil), g.AppendCanonical(nil)) {
			t.Errorf("%s: Canonical changed the canonical encoding", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if Canonical(c) != c {
			t.Errorf("%s: Canonical of a canonical graph is a copy", name)
		}
	}
	if IsCanonical(Torus(4, 4)) || IsCanonical(Cycle(5)) {
		t.Error("a torus or a cycle from its generator has a wrap edge out of order")
	}

	negZero := math.Copysign(0, -1)
	a := New(3)
	a.AddWeightedEdge(0, 1, 0)
	a.AddWeightedEdge(1, 0, negZero)
	a.AddWeightedEdge(1, 2, 1)
	b := New(3)
	b.AddWeightedEdge(0, 1, negZero)
	b.AddWeightedEdge(0, 1, 0)
	b.AddWeightedEdge(2, 1, 1)
	if IsCanonical(a) || IsCanonical(b) {
		t.Fatal("a graph with a -0 weight is not canonical")
	}
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Error("the order of tied +0 and -0 edges changed the encoding")
	}
	for _, e := range Canonical(b).EdgeSlice() {
		if math.Signbit(e.W) {
			t.Errorf("Canonical kept a -0 weight: %v", Canonical(b).EdgeSlice())
		}
	}
	nan := New(2)
	nan.AddWeightedEdge(0, 1, math.NaN())
	if nan.Validate() == nil {
		t.Error("Validate accepts a NaN weight")
	}
}
