package service

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"locshort/internal/cli"
)

// Shortcut keys and stored records address partitions by
// FingerprintPartition, and the Builder's output depends on part order, so
// the partitions the spec parser produces for a given (graph, spec, seed)
// are pinned: both the fingerprint and an order-sensitive hash of Parts.
func TestPartitionFingerprintsGolden(t *testing.T) {
	golden := []struct {
		graph, parts string
		seed         int64
		fp           string
		order        uint64
	}{
		{"grid:64x64", "blobs:32", 1, "4e2b0be9923a2ca9", 0xeb15c2530ee8c5ed},
		{"grid:64x64", "blobs:32", 2, "888326c75491a860", 0x7e1f9166e12a5beb},
		{"grid:64x64", "blobs:32", 977, "887809d3530ab014", 0x826973b00adf25bf},
		{"torus:32x32", "blobs:32", 1, "cef227c3f7f24ebb", 0xf2ed44b75ced8fdf},
		{"ktree:600,4", "blobs:32", 1, "8c0ba9364a66be06", 0xfb61bac5f0d5cddd},
		{"grid:32x32", "blobs:16", 5, "016f596e907703cb", 0x60a9b94c34e9b879},
		{"grid:16x16", "rows:16x16", 0, "4b8c14f56ecb4eec", 0x6606bac687af3855},
		{"wheel:50", "rim", 0, "c1268cf191888302", 0x68c9e5cef7fcef78},
		{"grid:8x8", "singletons", 0, "8f007f4fb816de65", 0xc474f1b8b231ba25},
		{"lb:6,16", "blobs:8", 3, "5fd501866a8c7b67", 0xe69572151af63bcd},
		{"random:300,700", "blobs:20", 4, "41e01ea3086d29e8", 0x3428b844c5dcc499},
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
