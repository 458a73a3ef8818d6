package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"locshort/internal/graph"
)

func TestNewValidates(t *testing.T) {
	g := graph.Path(6)
	tests := []struct {
		name    string
		parts   [][]int
		wantErr bool
	}{
		{name: "valid cover", parts: [][]int{{0, 1, 2}, {3, 4, 5}}},
		{name: "valid partial", parts: [][]int{{1, 2}}},
		{name: "empty part", parts: [][]int{{0}, {}}, wantErr: true},
		{name: "overlap", parts: [][]int{{0, 1}, {1, 2}}, wantErr: true},
		{name: "out of range", parts: [][]int{{0, 6}}, wantErr: true},
		{name: "negative", parts: [][]int{{-1}}, wantErr: true},
		{name: "disconnected part", parts: [][]int{{0, 2}}, wantErr: true},
		{name: "disconnected via uncovered", parts: [][]int{{0, 1}, {3, 5}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(g, tt.parts)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestPartOfAndCovered(t *testing.T) {
	g := graph.Path(5)
	p, err := New(g, [][]int{{0, 1}, {3, 4}})
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	want := []int{0, 0, -1, 1, 1}
	for v, w := range want {
		if p.PartOf[v] != w {
			t.Errorf("PartOf[%d] = %d, want %d", v, p.PartOf[v], w)
		}
	}
	if covered(p) != 4 {
		t.Errorf("covered = %d, want 4", covered(p))
	}
	if p.NumParts() != 2 {
		t.Errorf("NumParts() = %d, want 2", p.NumParts())
	}
}

// covered counts the nodes that belong to some part.
func covered(p *Partition) int {
	n := 0
	for _, i := range p.PartOf {
		if i >= 0 {
			n++
		}
	}
	return n
}

func TestNewCopiesInput(t *testing.T) {
	g := graph.Path(3)
	in := [][]int{{0, 1}}
	p, err := New(g, in)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	in[0][0] = 2
	if p.Parts[0][0] != 0 {
		t.Error("partition aliases caller's slice")
	}
}

func TestBFSBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Grid(8, 8)
	p, err := BFSBlobs(g, 5, rng)
	if err != nil {
		t.Fatalf("BFSBlobs error = %v", err)
	}
	if p.NumParts() != 5 {
		t.Errorf("NumParts = %d, want 5", p.NumParts())
	}
	if covered(p) != 64 {
		t.Errorf("covered = %d, want 64", covered(p))
	}
}

func TestBFSBlobsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Path(4)
	if _, err := BFSBlobs(g, 0, rng); err == nil {
		t.Error("BFSBlobs(k=0) succeeded")
	}
	if _, err := BFSBlobs(g, 5, rng); err == nil {
		t.Error("BFSBlobs(k>n) succeeded")
	}
	dis := graph.New(4)
	dis.AddEdge(0, 1)
	dis.AddEdge(2, 3)
	if _, err := BFSBlobs(dis, 2, rng); err != graph.ErrDisconnected {
		t.Errorf("BFSBlobs on disconnected = %v, want ErrDisconnected", err)
	}
}

func TestFromLabels(t *testing.T) {
	g := graph.Path(5)
	p, err := FromLabels(g, []int{7, 7, -1, 9, 9})
	if err != nil {
		t.Fatalf("FromLabels error = %v", err)
	}
	if p.NumParts() != 2 || covered(p) != 4 {
		t.Errorf("NumParts = %d covered = %d, want 2 and 4", p.NumParts(), covered(p))
	}
	if _, err := FromLabels(g, []int{0, 0}); err == nil {
		t.Error("FromLabels accepted wrong-length labels")
	}
	if _, err := FromLabels(g, []int{0, 1, 0, 1, 0}); err == nil {
		t.Error("FromLabels accepted disconnected parts")
	}
}

// TestFromCanonical checks the canonical-label constructor: a dense
// first-appearance labeling round-trips to the partition FromLabels
// builds, filling the caller's Partition and parts slice, with the parts
// laid out in partOf's spare capacity when it has room, allocating
// nothing then; anything else — a label out of range, out of
// first-appearance order, a k the labels do not use up, a disconnected
// part — is rejected.
func TestFromCanonical(t *testing.T) {
	g := graph.Path(6)
	labels := []int{0, 0, -1, 1, 1, 2}
	want, err := FromLabels(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, len(labels), 2*len(labels))
	copy(partOf, labels)
	var p Partition
	parts := make([][]int, 3, 6) // Parts, then room a caller keeps for itself
	if err := FromCanonical(&p, g, partOf, parts[:3:3]); err != nil {
		t.Fatalf("FromCanonical: %v", err)
	}
	if !reflect.DeepEqual(p.Parts, want.Parts) || !reflect.DeepEqual(p.PartOf, want.PartOf) {
		t.Fatalf("FromCanonical = %v / %v, want %v / %v", p.Parts, p.PartOf, want.Parts, want.PartOf)
	}
	if &p.Parts[0] != &parts[0] || cap(p.Parts) != 3 {
		t.Error("Parts is not the caller's parts slice")
	}
	if &p.Parts[0][0] != &partOf[:cap(partOf)][len(labels)] {
		t.Error("parts were not laid out in partOf's spare capacity")
	}
	if cap(p.PartOf) != len(labels) {
		t.Errorf("PartOf capacity %d reaches into the parts", cap(p.PartOf))
	}
	for i, part := range p.Parts {
		if cap(part) != len(part) {
			t.Errorf("part %d has capacity %d past its %d nodes", i, cap(part), len(part))
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		copy(partOf, labels)
		if err := FromCanonical(&p, g, partOf, parts[:3:3]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FromCanonical into caller-owned memory: %.0f allocs/op, want 0", n)
	}
	if err := FromCanonical(&p, g, []int{0, 0, -1, 1, 1, 2}, make([][]int, 3)); err != nil {
		t.Errorf("FromCanonical without spare capacity: %v", err)
	}
	for _, c := range []struct {
		labels []int
		k      int
	}{
		{[]int{0, 0, 1, 1, 3, 2}, 4}, // 3 before 2
		{[]int{1, 1, 0, 0, 2, 2}, 3}, // 1 before 0
		{[]int{0, 0, 1, 1, 2, 2}, 4}, // k unused
		{[]int{0, 0, 1, 1, 2, 3}, 3}, // label >= k
		{[]int{0, 0, 1, -2, 1, 1}, 2},
		{[]int{0, 1, 0, 2, 2, 2}, 3}, // part 0 disconnected
		{[]int{0, 0, 0}, 1},          // wrong length
		{[]int{0, 1, 2, 3, 4, 5}, 7}, // k > n
	} {
		if err := FromCanonical(&p, g, append([]int(nil), c.labels...), make([][]int, c.k)); err == nil {
			t.Errorf("FromCanonical(%v, %d) succeeded, want an error", c.labels, c.k)
		}
	}
}

func TestGridRows(t *testing.T) {
	g := graph.Grid(3, 5)
	p, err := GridRows(g, 3, 5)
	if err != nil {
		t.Fatalf("GridRows error = %v", err)
	}
	if p.NumParts() != 3 {
		t.Errorf("NumParts = %d, want 3", p.NumParts())
	}
	for i, part := range p.Parts {
		if len(part) != 5 {
			t.Errorf("row %d has %d nodes, want 5", i, len(part))
		}
	}
	if _, err := GridRows(g, 4, 5); err == nil {
		t.Error("GridRows accepted mismatched dimensions")
	}
}

func TestWheelRim(t *testing.T) {
	g := graph.Wheel(10)
	p, err := WheelRim(g)
	if err != nil {
		t.Fatalf("WheelRim error = %v", err)
	}
	if p.NumParts() != 2 {
		t.Fatalf("NumParts = %d, want 2", p.NumParts())
	}
	if len(p.Parts[0]) != 9 || len(p.Parts[1]) != 1 {
		t.Errorf("part sizes = %d, %d; want 9, 1", len(p.Parts[0]), len(p.Parts[1]))
	}
}

func TestSingletons(t *testing.T) {
	g := graph.Cycle(7)
	p, err := Singletons(g)
	if err != nil {
		t.Fatalf("Singletons error = %v", err)
	}
	if p.NumParts() != 7 || covered(p) != 7 {
		t.Errorf("NumParts = %d covered = %d, want 7 and 7", p.NumParts(), covered(p))
	}
}

// Property: BFSBlobs always yields a full cover by k connected disjoint
// parts on random connected graphs (connectivity is revalidated by New).
func TestBFSBlobsQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%60
		k := 1 + int(kRaw)%n
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(n)
		if m > maxM {
			m = maxM
		}
		g := graph.RandomConnected(n, m, rng)
		p, err := BFSBlobs(g, k, rng)
		if err != nil {
			return false
		}
		return p.NumParts() == k && covered(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FromLabelsInto must agree with FromLabels and reuse its receiver's
// memory across rebuilds, including shrinking and growing part counts.
func TestFromLabelsIntoMatchesFromLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var p *Partition
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(50)
		g := graph.RandomConnected(n, n-1+rng.Intn(n), rng)
		// Voronoi-style labels from random seeds are connected and node-
		// derived (< n), the FromLabelsInto fast path.
		k := 1 + rng.Intn(n)
		blobs, err := BFSBlobs(g, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		label := make([]int, n)
		for v := range label {
			if i := blobs.PartOf[v]; i >= 0 {
				label[v] = blobs.Parts[i][0] // a node-ID label, possibly sparse in [0,n)
			}
		}
		if trial%4 == 0 {
			label[rng.Intn(n)] = label[rng.Intn(n)] // keep labels valid, vary shapes
		}
		want, errWant := FromLabels(g, label)
		var errGot error
		p, errGot = FromLabelsInto(p, g, label)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: FromLabels err=%v, FromLabelsInto err=%v", trial, errWant, errGot)
		}
		if errWant != nil {
			p = nil // a failed rebuild leaves p half-written; start fresh
			continue
		}
		if !reflect.DeepEqual(want.PartOf, p.PartOf) {
			t.Fatalf("trial %d: PartOf differs", trial)
		}
		if len(want.Parts) != len(p.Parts) {
			t.Fatalf("trial %d: %d parts, want %d", trial, len(p.Parts), len(want.Parts))
		}
		for i := range want.Parts {
			if !reflect.DeepEqual(want.Parts[i], p.Parts[i]) {
				t.Fatalf("trial %d: part %d differs", trial, i)
			}
		}
	}
}

func TestFromLabelsIntoSparseFallback(t *testing.T) {
	g := graph.Path(4)
	label := []int{100, 100, 7, 7} // labels >= n: allocating FromLabels path
	p, err := FromLabelsInto(nil, g, label)
	if err != nil {
		t.Fatalf("FromLabelsInto error = %v", err)
	}
	if p.NumParts() != 2 || p.PartOf[0] != 0 || p.PartOf[3] != 1 {
		t.Errorf("sparse labels misparsed: parts=%d partOf=%v", p.NumParts(), p.PartOf)
	}
}

// Parts of one constructor share a backing array; rebuilding such a
// partition in place where part 0 grows must not run into part 1.
func TestFromLabelsIntoAfterSharedBacking(t *testing.T) {
	g := graph.Grid(6, 6)
	p, err := BFSBlobs(g, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	label := make([]int, g.NumNodes())
	for v := range label {
		if p.PartOf[v] == 3 {
			label[v] = p.Parts[3][0]
		} // every other node joins node 0's part, which grows
	}
	want, err := FromLabels(g, label)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromLabelsInto(p, g, label)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Parts, got.Parts) || !reflect.DeepEqual(want.PartOf, got.PartOf) {
		t.Errorf("rebuilt parts %v, want %v", got.Parts, want.Parts)
	}
}
