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

// TestIsCanonicalMemo: IsCanonical memoizes its answer, and every edit
// that can change it drops the memo — SetWeight to −0, SetWeight to a
// weight out of canonical order, and AddEdge out of canonical order —
// while Clone and Canonical start unknown and answer afresh.
func TestIsCanonicalMemo(t *testing.T) {
	g := New(4)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(0, 1, 2)
	g.AddWeightedEdge(1, 2, 1)
	if !IsCanonical(g) || g.canonical.Load() != canonicalYes {
		t.Fatal("canonical graph not memoized as canonical")
	}
	g.SetWeight(2, math.Copysign(0, -1))
	if g.canonical.Load() != canonicalUnknown || IsCanonical(g) {
		t.Fatal("SetWeight to -0 kept the canonical memo")
	}
	g.SetWeight(2, 1)
	if !IsCanonical(g) {
		t.Fatal("SetWeight back to +1 left the graph non-canonical")
	}
	g.SetWeight(0, 3) // (0,1,3) before (0,1,2)
	if IsCanonical(g) {
		t.Fatal("SetWeight to an out-of-order weight kept the canonical memo")
	}
	g.SetWeight(0, 1)
	if !IsCanonical(g) {
		t.Fatal("SetWeight back into order left the graph non-canonical")
	}
	g.AddEdge(0, 3) // (0,3) after (1,2)
	if g.canonical.Load() != canonicalUnknown || IsCanonical(g) {
		t.Fatal("AddEdge out of canonical order kept the canonical memo")
	}
	if c := g.Clone(); c.canonical.Load() != canonicalUnknown || IsCanonical(c) {
		t.Fatal("Clone did not start unknown and answer afresh")
	}
	c := Canonical(g)
	if c.canonical.Load() != canonicalUnknown || !IsCanonical(c) {
		t.Fatal("Canonical did not start unknown and answer canonical")
	}
	RandomizeWeights(c, rand.New(rand.NewSource(1)))
	if c.canonical.Load() != canonicalUnknown {
		t.Fatal("RandomizeWeights kept the canonical memo")
	}
	if IsCanonical(c) != scanCanonical(c) {
		t.Fatal("memoized answer differs from the scan")
	}
	if n := testing.AllocsPerRun(10, func() { IsCanonical(g) }); n != 0 {
		t.Errorf("IsCanonical: %.0f allocs/op, want 0", n)
	}
}
