package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// encodePartition and encodeShortcut are the payload appenders on a nil
// buffer: one payload each, as the tests compare and corrupt them.
func encodePartition(p *partition.Partition) []byte { return appendPartition(nil, p) }

func encodeShortcut(graphFP service.Fingerprint, opts shortcut.Options, res *shortcut.Result,
	buildTime time.Duration) ([]byte, service.Fingerprint, error) {
	return appendShortcut(nil, graphFP, opts, res, buildTime)
}

// The key-only read in two steps: decode the partition record on its own,
// then the shortcut against the partition it decoded to. It is the oracle
// FuzzDecodeRecord holds the fused read (decodeRecord) to, and the
// partition decoder FuzzDecodePartitionPayload checks against the
// encoders. Its label reading and its partition construction
// (partition.FromLabels) are its own; only the shortcut step is the
// store's partition-given read.

// decodeRecordTwoStep decodes spay against g and the partition it names,
// decoded from ppay first.
func decodeRecordTwoStep(spay, ppay []byte, key service.Fingerprint, g *graph.Graph) (*shortcut.Result, time.Duration, error) {
	meta, err := parseShortcutMeta(spay)
	if err != nil {
		return nil, 0, err
	}
	parts, err := decodePartition(ppay, meta.partFP, g)
	if err != nil {
		return nil, 0, err
	}
	return decodeShortcut(spay, key, g, parts)
}

// decodePartition reconstructs a partition payload against g: its labels
// must cover g's nodes, each below k, with no bytes trailing, hash to key,
// be dense and in first-appearance order, and make connected parts.
func decodePartition(payload []byte, key service.Fingerprint, g *graph.Graph) (*partition.Partition, error) {
	partOf, k, err := readLabels(payload, key, g)
	if err == nil {
		var p *partition.Partition
		if p, err = fromCanonicalLabels(g, partOf, k); err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("store: partition %s: %w", key, err)
}

// readLabels reads a payload's labels: uvarint n, uvarint k and one
// uvarint label+1 per node (0 uncovered), every varint in its shortest
// form.
func readLabels(payload []byte, key service.Fingerprint, g *graph.Graph) ([]int, int, error) {
	if len(payload) < 1 || payload[0] != partitionPayloadVersion {
		return nil, 0, errors.New("bad payload version")
	}
	b := payload[1:]
	uvarint := func() (uint64, bool) {
		x, used := binary.Uvarint(b)
		if used <= 0 || used != len(binary.AppendUvarint(nil, x)) {
			return 0, false
		}
		b = b[used:]
		return x, true
	}
	n, okN := uvarint()
	k, okK := uvarint()
	switch {
	case !okN || !okK:
		return nil, 0, errors.New("truncated or overlong header")
	case n != uint64(g.NumNodes()):
		return nil, 0, fmt.Errorf("covers %d nodes, graph has %d", n, g.NumNodes())
	case k > n:
		return nil, 0, fmt.Errorf("%d parts for %d nodes", k, n)
	}
	partOf := make([]int, n)
	for v := range partOf {
		x, ok := uvarint()
		if !ok || x > k {
			return nil, 0, fmt.Errorf("node %d: bad label", v)
		}
		partOf[v] = int(x) - 1
	}
	if len(b) != 0 {
		return nil, 0, fmt.Errorf("%d trailing bytes", len(b))
	}
	// The canonical encoding the key hashes, built: n, k, every label (an
	// uncovered node's is 2^64-1), big-endian words.
	canon := binary.BigEndian.AppendUint64(nil, n)
	canon = binary.BigEndian.AppendUint64(canon, k)
	for _, l := range partOf {
		canon = binary.BigEndian.AppendUint64(canon, uint64(int64(l)))
	}
	if got := service.FingerprintBytes(canon); got != key {
		return nil, 0, fmt.Errorf("content hashes to %s", got)
	}
	return partOf, int(k), nil
}

// fromCanonicalLabels builds the partition of dense first-appearance
// labels with partition.FromLabels, whose parts come in first-appearance
// order, so part i is label i.
func fromCanonicalLabels(g *graph.Graph, partOf []int, k int) (*partition.Partition, error) {
	next := 0
	for v, l := range partOf {
		switch {
		case l > next:
			return nil, fmt.Errorf("node %d label %d precedes label %d", v, l, next)
		case l == next:
			next++
		}
	}
	if next != k {
		return nil, fmt.Errorf("labels use %d of %d parts", next, k)
	}
	return partition.FromLabels(g, partOf)
}

// FuzzDecodeRecord holds the fused key-only read (decodeRecord) to the
// two-step decode above, over pairs of shortcut and partition payloads,
// seeded from grid, torus and wheel fixtures (picked by the graph
// fingerprint in the shortcut's head), copies of them with another
// version byte, and their truncations. Each pair is decoded under the key
// its claimed inputs hash to — over the partition the oracle decodes,
// else the fixture's — and, when the partition payload hashes to another
// fingerprint than the shortcut names, once more with the shortcut naming
// that one, so mutated partition payloads get past the hash check. The
// invariants: never panic; the fused read accepts exactly when the oracle
// does, and never a payload of another version than this build writes; an
// accepted record equals the oracle's field by field (metadata, build
// time, PartOf, Parts, H, Covered, and a tree that aliases the graph's
// memo); and appending to a returned Parts[i], H[i], PartOf, Parts or H
// reallocates instead of writing into its neighbour.
func FuzzDecodeRecord(f *testing.F) {
	type fixture struct {
		g     *graph.Graph
		parts *partition.Partition
	}
	fixtures := make(map[service.Fingerprint]fixture)
	var fallback fixture
	for _, c := range []struct{ spec, parts string }{
		{"grid:6x6", "blobs:4"}, {"torus:5x5", "blobs:5"}, {"wheel:12", "rim"},
	} {
		g, p, res := buildFixture(f, c.spec, c.parts, 1)
		fp := service.FingerprintGraph(g)
		fixtures[fp] = fixture{g, p}
		if fallback.g == nil {
			fallback = fixtures[fp]
		}
		s2, _, err := encodeShortcut(fp, shortcut.Options{}, res, time.Millisecond)
		if err != nil {
			f.Fatal(err)
		}
		p2 := encodePartition(p)
		for _, spay := range [][]byte{s2, withVersion(s2, shortcutPayloadVersion+1)} {
			for _, ppay := range [][]byte{p2, withVersion(p2, partitionPayloadVersion+1)} {
				f.Add(spay, ppay)
				f.Add(spay[:len(spay)-1], ppay)
				f.Add(spay, ppay[:len(ppay)-1])
				f.Add(spay[:len(spay)/2], ppay[:len(ppay)/2])
				f.Add(spay[:17], ppay[:1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, spay, ppay []byte) {
		meta, _ := parseShortcutMeta(spay)
		fx, ok := fixtures[meta.graphFP]
		if !ok {
			fx = fallback
		}
		checkFusedRead(t, spay, ppay, fx.g, fx.parts)
		if pfp, err := partitionKey(ppay); err == nil && len(spay) >= 17 && pfp != meta.partFP {
			named := slices.Clone(spay)
			binary.BigEndian.PutUint64(named[9:], uint64(pfp))
			checkFusedRead(t, named, ppay, fx.g, fx.parts)
		}
	})
}

// checkFusedRead decodes one pair both ways under the key its claimed
// inputs hash to and compares the outcomes (see FuzzDecodeRecord).
func checkFusedRead(t *testing.T, spay, ppay []byte, g *graph.Graph, fixtureParts *partition.Partition) {
	t.Helper()
	meta, _ := parseShortcutMeta(spay)
	keyParts := fixtureParts
	if p, err := decodePartition(ppay, meta.partFP, g); err == nil {
		keyParts = p
	}
	key := service.ShortcutKey(meta.graphFP, keyParts, claimedOptions(spay))
	want, wantBT, wantErr := decodeRecordTwoStep(spay, ppay, key, g)
	got, gotBT, err := decodeRecord(spay, ppay, key, g)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("fused read: %v; two-step decode: %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if spay[0] != shortcutPayloadVersion || ppay[0] != partitionPayloadVersion {
		t.Fatalf("accepted shortcut payload version %d over partition payload version %d", spay[0], ppay[0])
	}
	type metadata struct {
		delta, threshold, budget, iterations, depth int
		build                                       time.Duration
	}
	m1 := metadata{got.Delta, got.CongestionThreshold, got.BlockBudget, got.Iterations, got.TreeDepth, gotBT}
	m2 := metadata{want.Delta, want.CongestionThreshold, want.BlockBudget, want.Iterations, want.TreeDepth, wantBT}
	if m1 != m2 {
		t.Fatalf("metadata %+v, two-step %+v", m1, m2)
	}
	s, w := got.Shortcut, want.Shortcut
	if s.G != g || s.Parts == nil {
		t.Fatal("fused read is not over the graph, or has no partition")
	}
	if !slices.Equal(s.Parts.PartOf, w.Parts.PartOf) {
		t.Fatalf("PartOf %v, two-step %v", s.Parts.PartOf, w.Parts.PartOf)
	}
	if !slices.EqualFunc(s.Parts.Parts, w.Parts.Parts, slices.Equal) {
		t.Fatalf("Parts %v, two-step %v", s.Parts.Parts, w.Parts.Parts)
	}
	if !slices.EqualFunc(s.H, w.H, slices.Equal) {
		t.Fatalf("H %v, two-step %v", s.H, w.H)
	}
	if !slices.Equal(s.Covered, w.Covered) {
		t.Fatalf("Covered %v, two-step %v", s.Covered, w.Covered)
	}
	bfs := g.BFSTree()
	if tr := s.Tree; tr == nil || tr.Root != bfs.Root || &tr.ParentEdge[0] != &bfs.ParentEdge[0] ||
		&tr.Parent[0] != &bfs.Parent[0] || &tr.Depth[0] != &bfs.Dist[0] || &tr.Order[0] != &bfs.Order[0] {
		t.Fatal("fused read's tree does not alias the graph's memoized BFS tree")
	}
	// An append reallocates exactly when the slice is at capacity.
	full := func(what string, l, c int) {
		if l != c {
			t.Fatalf("%s: length %d, capacity %d: an append would write into its neighbour", what, l, c)
		}
	}
	full("PartOf", len(s.Parts.PartOf), cap(s.Parts.PartOf))
	full("Parts", len(s.Parts.Parts), cap(s.Parts.Parts))
	full("H", len(s.H), cap(s.H))
	for i, part := range s.Parts.Parts {
		full(fmt.Sprintf("Parts[%d]", i), len(part), cap(part))
	}
	for i, h := range s.H {
		full(fmt.Sprintf("H[%d]", i), len(h), cap(h))
	}
}

// TestPayloadV2Sizes pins the partition payload on grid:32x32 blobs:16,
// the store-mixed benchmark's shape: one byte per node after a 4-byte
// head.
func TestPayloadV2Sizes(t *testing.T) {
	_, p, _ := buildFixture(t, "grid:32x32", "blobs:16", 1)
	if got, want := len(encodePartition(p)), 1+2+1+1024; got != want {
		t.Errorf("partition payload %d bytes, want %d", got, want)
	}
}
