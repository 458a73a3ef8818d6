package service

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// goldenOpts are non-default build options for the golden shortcut keys.
var goldenOpts = shortcut.Options{Delta: 2, CongestionFactor: 3, MaxIterations: 5}

// Shortcut keys and stored records address partitions by
// FingerprintPartition, and the Builder's output depends on part order, so
// the partitions the spec parser produces for a given (graph, spec, seed)
// are pinned: the fingerprint, an order-sensitive hash of Parts, and the
// shortcut keys, which every stored record and every benchmark dataset is
// addressed by (all computed before key derivation was streamed).
func TestPartitionFingerprintsGolden(t *testing.T) {
	golden := []struct {
		graph, parts string
		seed         int64
		fp           string
		order        uint64
		key, keyOpts string // ShortcutKey with zero and with goldenOpts
	}{
		{"grid:64x64", "blobs:32", 1, "4e2b0be9923a2ca9", 0xeb15c2530ee8c5ed, "8df82ba445416b0f", "b9635a88cf97f903"},
		{"grid:64x64", "blobs:32", 2, "888326c75491a860", 0x7e1f9166e12a5beb, "b023594a3e221372", "84b82265b3cb77e6"},
		{"grid:64x64", "blobs:32", 977, "887809d3530ab014", 0x826973b00adf25bf, "d3e82e0a8da1f68e", "a87cff26034b689a"},
		{"torus:32x32", "blobs:32", 1, "cef227c3f7f24ebb", 0xf2ed44b75ced8fdf, "7f11372bac8b70ef", "aa7c661036e1fee3"},
		{"ktree:600,4", "blobs:32", 1, "8c0ba9364a66be06", 0xfb61bac5f0d5cddd, "146c35b416b7e346", "e90106cf8c615552"},
		{"grid:32x32", "blobs:16", 5, "016f596e907703cb", 0x60a9b94c34e9b879, "0f17ef7cb7f74f88", "d831ac521bfe5494"},
		{"grid:16x16", "rows:16x16", 0, "4b8c14f56ecb4eec", 0x6606bac687af3855, "e050034afd926b6a", "b4e4cc66733bcfde"},
		{"wheel:50", "rim", 0, "c1268cf191888302", 0x68c9e5cef7fcef78, "db7a7c44abdd0d36", "b00f4d6021867f42"},
		{"grid:8x8", "singletons", 0, "8f007f4fb816de65", 0xc474f1b8b231ba25, "93f93a72dd339b71", "cadf859d792ca3fd"},
		{"lb:6,16", "blobs:8", 3, "5fd501866a8c7b67", 0xe69572151af63bcd, "a316b45925716f60", "6c30712e8978746c"},
		{"random:300,700", "blobs:20", 4, "41e01ea3086d29e8", 0x3428b844c5dcc499, "461a43b057718392", "1aaf0ccbcd1ae806"},
	}
	for _, c := range golden {
		g, _, err := cli.ParseGraph(c.graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cli.ParsePartition(g, c.parts, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if fp := FingerprintPartition(p).String(); fp != c.fp {
			t.Errorf("%s %s seed %d: fingerprint %s, want %s", c.graph, c.parts, c.seed, fp, c.fp)
		}
		gfp := FingerprintGraph(g)
		if key := ShortcutKey(gfp, p, shortcut.Options{}).String(); key != c.key {
			t.Errorf("%s %s seed %d: shortcut key %s, want %s", c.graph, c.parts, c.seed, key, c.key)
		}
		if key := ShortcutKey(gfp, p, goldenOpts).String(); key != c.keyOpts {
			t.Errorf("%s %s seed %d: shortcut key with options %s, want %s", c.graph, c.parts, c.seed, key, c.keyOpts)
		}
		h := fnv.New64a()
		for _, part := range p.Parts {
			for _, v := range part {
				h.Write(binary.BigEndian.AppendUint64(nil, uint64(v)))
			}
			h.Write([]byte{0xff})
		}
		if order := h.Sum64(); order != c.order {
			t.Errorf("%s %s seed %d: part order hash %#016x, want %#016x", c.graph, c.parts, c.seed, order, c.order)
		}
	}
}

// byteKey is ShortcutKey computed the way it was before it was streamed:
// FNV-1a over the materialized bytes.
func byteKey(g Fingerprint, p *partition.Partition, o shortcut.Options) Fingerprint {
	b := binary.BigEndian.AppendUint64(nil, uint64(g))
	b = AppendPartitionCanonical(b, p)
	for _, v := range [...]int{o.Delta, o.MaxDelta, o.CongestionFactor, o.BlockFactor, o.MaxIterations} {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(v)))
	}
	h := fnv.New64a()
	h.Write(b)
	return Fingerprint(h.Sum64())
}

// TestStreamedKeyMatchesCanonicalBytes checks the streamed derivations
// against FNV-1a over AppendPartitionCanonical's bytes: ShortcutKey,
// ShortcutKeyCanonical and FingerprintPartition, over spec-made
// partitions and over random label arrays — parts out of first-appearance
// order, uncovered nodes, and more parts than the stack rank table holds.
func TestStreamedKeyMatchesCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, g *graph.Graph, p *partition.Partition) {
		t.Helper()
		gfp := FingerprintGraph(g)
		canon := AppendPartitionCanonical(nil, p)
		for _, o := range []shortcut.Options{{}, goldenOpts, {MaxDelta: 7, BlockFactor: 1}} {
			want := byteKey(gfp, p, o)
			if got := ShortcutKey(gfp, p, o); got != want {
				t.Fatalf("%s %+v: ShortcutKey %s, bytes hash to %s", name, o, got, want)
			}
			if got := ShortcutKeyCanonical(gfp, canon, o); got != want {
				t.Fatalf("%s %+v: ShortcutKeyCanonical %s, bytes hash to %s", name, o, got, want)
			}
		}
		if got, want := FingerprintPartition(p), FingerprintBytes(canon); got != want {
			t.Fatalf("%s: FingerprintPartition %s, bytes hash to %s", name, got, want)
		}
	}
	for _, c := range []struct{ graph, parts string }{
		{"grid:12x12", "blobs:9"}, {"torus:9x9", "blobs:60"}, {"grid:20x20", "blobs:150"},
		{"wheel:30", "rim"}, {"grid:6x6", "rows:6x6"}, {"path:40", "singletons"},
	} {
		g, _, err := cli.ParseGraph(c.graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			p, err := cli.ParsePartition(g, c.parts, seed)
			if err != nil {
				t.Fatal(err)
			}
			check(c.graph+" "+c.parts, g, p)
		}
	}
	// Random labels on a path: contiguous runs are connected, runs are
	// numbered in random order, and some runs stay uncovered.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(600)
		g := graph.Path(n)
		label := make([]int, n)
		runs := 1 + rng.Intn(n)
		perm := rng.Perm(runs)
		for v := range label {
			run := v * runs / n
			label[v] = perm[run]
			if perm[run]%5 == 4 {
				label[v] = -1
			}
		}
		p, err := partition.FromLabels(g, label)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle the part order too: the canonical encoding ignores it.
		rng.Shuffle(len(p.Parts), func(i, j int) { p.Parts[i], p.Parts[j] = p.Parts[j], p.Parts[i] })
		for i, part := range p.Parts {
			for _, v := range part {
				p.PartOf[v] = i
			}
		}
		check("random labels", g, p)
	}
}
