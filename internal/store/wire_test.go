package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// TestPeerRecordBinaryFraming round-trips a full dependency closure through
// the binary peer framing and asserts the result verifies — the property
// the binary peer exchange rests on: framing adds nothing, removes nothing,
// and the payloads stay the exact bytes the fingerprints hash.
func TestPeerRecordBinaryFraming(t *testing.T) {
	dir := t.TempDir()
	g, p, res := buildFixture(t, "grid:6x6", "rows:6x6", 0)
	fp := service.FingerprintGraph(g)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	s := mustOpen(t, dir)
	defer s.Close()
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := s.ShortcutRecord(key)
	if !ok || err != nil {
		t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
	}

	frame := AppendPeerRecord(nil, rec)
	got, err := DecodePeerRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != rec.Key || got.GraphFP != rec.GraphFP || got.PartitionFP != rec.PartitionFP {
		t.Errorf("fingerprints changed in transit: %+v vs %+v", got, rec)
	}
	for i, pair := range [][2][]byte{
		{got.GraphPayload, rec.GraphPayload},
		{got.PartitionPayload, rec.PartitionPayload},
		{got.ShortcutPayload, rec.ShortcutPayload},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("payload %d changed in transit", i)
		}
	}
	if _, _, _, _, err := VerifyPeerRecord(got); err != nil {
		t.Errorf("round-tripped record fails verification: %v", err)
	}
}

// TestPeerRecordBinaryFramingErrors feeds the decoder malformed frames:
// every prefix of a valid frame must fail cleanly (no panic, no false
// success), as must a bad version byte and trailing garbage.
func TestPeerRecordBinaryFramingErrors(t *testing.T) {
	g, _, err := cli.ParseGraph("cycle:8", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeGraphPayload(g)
	rec := PeerRecord{
		Key:          1,
		GraphFP:      service.FingerprintBytes(payload[1:]),
		PartitionFP:  3,
		GraphPayload: payload,
	}
	frame := AppendPeerRecord(nil, rec)
	for n := 0; n < len(frame); n++ {
		if _, err := DecodePeerRecord(frame[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(frame))
		}
	}
	bad := append([]byte{}, frame...)
	bad[0] = 99
	if _, err := DecodePeerRecord(bad); err == nil {
		t.Error("bad version byte accepted")
	}
	if _, err := DecodePeerRecord(append(append([]byte{}, frame...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestEncodeShortcutRecordPayloadMatchesStore asserts the storeless
// fallback encoder produces the exact bytes PutShortcut persisted — the
// byte-equivalence that lets a binary response come from either path
// without the client being able to tell.
func TestEncodeShortcutRecordPayloadMatchesStore(t *testing.T) {
	dir := t.TempDir()
	g, p, res := buildFixture(t, "grid:5x5", "blobs:5", 7)
	fp := service.FingerprintGraph(g)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	s := mustOpen(t, dir)
	defer s.Close()
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, 42*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stored, ok, err := s.ShortcutPayload(key)
	if !ok || err != nil {
		t.Fatalf("ShortcutPayload: ok=%v err=%v", ok, err)
	}
	fresh := EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, res, 42*time.Millisecond)
	if !bytes.Equal(stored, fresh) {
		t.Error("fresh encoding differs from the stored payload")
	}
}

// TestPutGraphPayloadVerifies asserts the raw-payload ingest path stays
// self-verifying: a payload whose bytes do not hash to the claimed
// fingerprint, or with a wrong version byte, is rejected before anything
// hits the log.
func TestPutGraphPayloadVerifies(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	g, _, err := cli.ParseGraph("grid:4x4", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeGraphPayload(g)
	fp := service.FingerprintBytes(payload[1:])

	if err := s.PutGraphPayload(fp+1, payload); err == nil {
		t.Error("wrong fingerprint accepted")
	}
	bad := append([]byte{}, payload...)
	bad[0] = 0xee
	if err := s.PutGraphPayload(fp, bad); err == nil {
		t.Error("wrong payload version accepted")
	}
	if err := s.PutGraphPayload(fp, nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := s.PutGraphPayload(fp, payload); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Verbatim persistence: the payload read back is the payload put in.
	got, ok, err := s.GraphPayload(fp)
	if !ok || err != nil || !bytes.Equal(got, payload) {
		t.Errorf("read-back mismatch: ok=%v err=%v equal=%v", ok, err, bytes.Equal(got, payload))
	}
	// Re-put of known content is a no-op, not an error.
	if err := s.PutGraphPayload(fp, payload); err != nil {
		t.Errorf("re-put of known content: %v", err)
	}
	if st := s.OpenStats(); st.Graphs != 1 {
		t.Errorf("Graphs = %d, want 1 after dedup", st.Graphs)
	}
}

// TestDecodeGraphPayloadHeader feeds the network decoder headers that must
// be refused before anything is sized from them: a node count over
// graph.MaxNodes, an edge count over graph.MaxEdges, counts past MaxInt,
// and an edge count for which 16+24m wraps around to the payload's true
// length.
func TestDecodeGraphPayloadHeader(t *testing.T) {
	header := func(n, m uint64, edges int) []byte {
		b := make([]byte, 17+24*edges)
		b[0] = graphPayloadVersion
		binary.BigEndian.PutUint64(b[1:], n)
		binary.BigEndian.PutUint64(b[9:], m)
		return b
	}
	big := header(graph.MaxNodes+1, 0, 0)
	if _, err := DecodeGraphPayload(big, service.FingerprintBytes(big[1:])); !errors.Is(err, graph.ErrTooLarge) {
		t.Errorf("%d-node header: err = %v, want graph.ErrTooLarge", uint64(graph.MaxNodes+1), err)
	}
	// A header claiming one edge too many is refused before the hash and
	// the length check: under any fingerprint, and in a peer record too.
	wide := header(2, graph.MaxEdges+1, 0)
	for _, fp := range []service.Fingerprint{service.FingerprintBytes(wide[1:]), 0} {
		if _, err := DecodeGraphPayload(wide, fp); !errors.Is(err, graph.ErrTooLarge) {
			t.Errorf("%d-edge header under %s: err = %v, want graph.ErrTooLarge", graph.MaxEdges+1, fp, err)
		}
	}
	if _, _, _, _, err := VerifyPeerRecord(PeerRecord{GraphPayload: wide}); !errors.Is(err, graph.ErrTooLarge) {
		t.Errorf("peer record with a %d-edge graph header: err = %v, want graph.ErrTooLarge", graph.MaxEdges+1, err)
	}
	for _, huge := range [][]byte{header(1<<63, 0, 0), header(2, 1<<63, 0)} {
		if _, err := DecodeGraphPayload(huge, service.FingerprintBytes(huge[1:])); !errors.Is(err, graph.ErrTooLarge) {
			t.Errorf("header counts past MaxInt: err = %v, want graph.ErrTooLarge", err)
		}
	}
	// One edge {0,1} is 24 bytes, and 24·(1+2^61) ≡ 24 mod 2^64.
	wrap := header(2, 1+1<<61, 1)
	binary.BigEndian.PutUint64(wrap[25:], 1)
	binary.BigEndian.PutUint64(wrap[33:], math.Float64bits(1))
	if _, err := DecodeGraphPayload(wrap, service.FingerprintBytes(wrap[1:])); err == nil {
		t.Error("edge count 1+2^61 accepted for a one-edge payload")
	}
	ok := header(2, 1, 1)
	copy(ok[17:], wrap[17:])
	if _, err := DecodeGraphPayload(ok, service.FingerprintBytes(ok[1:])); err != nil {
		t.Errorf("one-edge payload rejected: %v", err)
	}
}

// FuzzDecodeGraphPayload drives the binary ingest decoder with arbitrary
// bytes. The invariants: never panic; and any payload the decoder accepts
// must be canonical — re-encoding the decoded graph reproduces the input
// bytes exactly, so the fingerprint the store computed over the input is
// the graph's true content address.
func FuzzDecodeGraphPayload(f *testing.F) {
	for _, spec := range []string{"grid:4x4", "cycle:9", "wheel:7", "random:12,20"} {
		g, _, err := cli.ParseGraph(spec, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeGraphPayload(g))
	}
	f.Add([]byte{})
	f.Add([]byte{graphPayloadVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var fp service.Fingerprint
		if len(payload) >= 1 {
			fp = service.FingerprintBytes(payload[1:])
		}
		g, err := DecodeGraphPayload(payload, fp)
		if err != nil {
			return
		}
		re := EncodeGraphPayload(g)
		if !bytes.Equal(re, payload) {
			t.Fatalf("accepted non-canonical payload: re-encode differs (%d vs %d bytes)", len(re), len(payload))
		}
		if got := service.FingerprintGraph(g); got != fp {
			t.Fatalf("fingerprint drift: payload hashes to %s, graph to %s", fp, got)
		}
	})
}

// FuzzDecodePeerRecord drives the peer-frame parser with arbitrary bytes:
// it must never panic and never hand back payload slices that escape the
// input buffer.
func FuzzDecodePeerRecord(f *testing.F) {
	g, _, err := cli.ParseGraph("grid:3x3", 0)
	if err != nil {
		f.Fatal(err)
	}
	payload := EncodeGraphPayload(g)
	f.Add(AppendPeerRecord(nil, PeerRecord{Key: 1, GraphFP: 2, PartitionFP: 3, GraphPayload: payload}))
	f.Add([]byte{peerRecordVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodePeerRecord(b)
		if err != nil {
			return
		}
		total := len(rec.GraphPayload) + len(rec.PartitionPayload) + len(rec.ShortcutPayload)
		if total > len(b) {
			t.Fatalf("decoded payloads (%d bytes) exceed input (%d bytes)", total, len(b))
		}
	})
}

// claimedOptions parses the build options a shortcut payload's head
// claims, zero from a truncation on.
func claimedOptions(payload []byte) shortcut.Options {
	var o shortcut.Options
	if len(payload) < 17 {
		return o
	}
	r := varintReader{b: payload[17:]}
	for _, f := range [...]*int{&o.Delta, &o.MaxDelta, &o.CongestionFactor, &o.BlockFactor, &o.MaxIterations} {
		*f = int(r.varint())
	}
	return o
}

// FuzzDecodeShortcutPayload drives the shortcut record decoder — which
// DecodeShortcutPayload and VerifyPeerRecord feed peer-supplied bytes —
// with arbitrary payloads against grid, torus and wheel fixtures, picked
// by the graph fingerprint in the payload's head. Each payload is decoded
// under the key its own head claims, so mutations get past the key check
// into the structural decode. The invariants: never panic; an accepted
// payload yields a shortcut that passes Validate; and encoding the decoded
// result and decoding that again reproduces it field by field.
func FuzzDecodeShortcutPayload(f *testing.F) {
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
		payload, _ := encodeShortcut(newEdgePerm(g), fp, shortcut.Options{}, res, time.Millisecond)
		for _, n := range []int{len(payload), len(payload) - 1, len(payload) / 2, 18, 17, 1} {
			f.Add(payload[:n])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		meta, _ := parseShortcutMeta(payload)
		fx, ok := fixtures[meta.graphFP]
		if !ok {
			fx = fallback
		}
		opts := claimedOptions(payload)
		key := service.ShortcutKey(meta.graphFP, fx.parts, opts)
		res, bt, err := DecodeShortcutPayload(payload, key, fx.g, fx.parts)
		if err != nil {
			return
		}
		s := res.Shortcut
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted payload decodes to an invalid shortcut: %v", err)
		}
		re, _ := encodeShortcut(newEdgePerm(fx.g), meta.graphFP, opts, res, bt)
		if got := claimedOptions(re); got != opts {
			t.Fatalf("options %+v re-encode as %+v", opts, got)
		}
		res2, bt2, err := DecodeShortcutPayload(re, key, fx.g, fx.parts)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		s2 := res2.Shortcut
		type metadata struct {
			delta, threshold, budget, iterations, depth int
			build                                       time.Duration
		}
		m1 := metadata{res.Delta, res.CongestionThreshold, res.BlockBudget, res.Iterations, res.TreeDepth, bt}
		m2 := metadata{res2.Delta, res2.CongestionThreshold, res2.BlockBudget, res2.Iterations, res2.TreeDepth, bt2}
		if m1 != m2 {
			t.Fatalf("metadata %+v round-trips to %+v", m1, m2)
		}
		if !reflect.DeepEqual(s.H, s2.H) {
			t.Fatalf("H %v round-trips to %v", s.H, s2.H)
		}
		if !slices.Equal(s.Covered, s2.Covered) {
			t.Fatalf("Covered %v round-trips to %v", s.Covered, s2.Covered)
		}
		if (s.Tree == nil) != (s2.Tree == nil) {
			t.Fatalf("tree presence %v round-trips to %v", s.Tree != nil, s2.Tree != nil)
		}
		if s.Tree == nil {
			return
		}
		a, b := s.Tree, s2.Tree
		if a.Root != b.Root || !slices.Equal(a.Parent, b.Parent) || !slices.Equal(a.ParentEdge, b.ParentEdge) ||
			!slices.Equal(a.Depth, b.Depth) || !slices.Equal(a.Order, b.Order) {
			t.Fatalf("tree rooted at %d round-trips to one rooted at %d, or its arrays differ", a.Root, b.Root)
		}
	})
}

// partitionFuzzSeeds are the canonical partition payloads the partition
// decoder fuzz starts from, each decoded against its own graph.
var partitionFuzzSeeds = []struct{ spec, parts string }{
	{"grid:6x6", "blobs:4"}, {"torus:5x5", "blobs:5"}, {"wheel:12", "rim"},
}

// FuzzDecodePartitionPayload drives the partition record decoder, which
// every key-only store read and peer fetch runs on stored or
// peer-supplied bytes, against grid, torus and wheel graphs picked by the
// node count in the payload's header. Each payload is decoded under the
// key its own body hashes to, so mutations get past the hash check. The
// invariants: never panic; an accepted payload's n and k fit its length
// (17 + 8n bytes, k <= n); its parts are non-empty, connected, ascending,
// consistent with PartOf, and labelled densely in first-appearance order;
// and encodePartition of the decoded partition is the payload itself.
func FuzzDecodePartitionPayload(f *testing.F) {
	graphs := make(map[uint64]*graph.Graph)
	var fallback *graph.Graph
	for _, c := range partitionFuzzSeeds {
		g, _, err := cli.ParseGraph(c.spec, 0)
		if err != nil {
			f.Fatal(err)
		}
		p, err := cli.ParsePartition(g, c.parts, 1)
		if err != nil {
			f.Fatal(err)
		}
		graphs[uint64(g.NumNodes())] = g
		if fallback == nil {
			fallback = g
		}
		payload := encodePartition(p)
		for _, n := range []int{len(payload), len(payload) - 1, len(payload) / 2, 17, 16, 1} {
			f.Add(payload[:n])
		}
		k := binary.BigEndian.Uint64(payload[9:])
		labelK := slices.Clone(payload)
		binary.BigEndian.PutUint64(labelK[17:], k) // node 0's label = k
		f.Add(labelK)
		kOverN := slices.Clone(payload)
		binary.BigEndian.PutUint64(kOverN[9:], uint64(g.NumNodes())+1)
		f.Add(kOverN)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		g := fallback
		if len(payload) >= 9 {
			if gg, ok := graphs[binary.BigEndian.Uint64(payload[1:])]; ok {
				g = gg
			}
		}
		var key service.Fingerprint
		if len(payload) > 0 {
			key = service.FingerprintBytes(payload[1:])
		}
		p, err := decodePartition(payload, key, g)
		if err != nil {
			return
		}
		n, k := g.NumNodes(), p.NumParts()
		if len(payload) != 17+8*n || k > n || len(p.PartOf) != n {
			t.Fatalf("accepted %d bytes as n=%d k=%d with %d labels", len(payload), n, k, len(p.PartOf))
		}
		next, covered := 0, 0
		for v, l := range p.PartOf {
			switch {
			case l == -1:
				continue
			case l < 0 || l > next || l >= k:
				t.Fatalf("node %d label %d: not dense first-appearance order (next %d, k %d)", v, l, next, k)
			case l == next:
				next++
			}
			covered++
		}
		if next != k {
			t.Fatalf("labels use %d of %d parts", next, k)
		}
		sum := 0
		for i, part := range p.Parts {
			if len(part) == 0 {
				t.Fatalf("part %d is empty", i)
			}
			sum += len(part)
			for j, v := range part {
				if p.PartOf[v] != i || (j > 0 && part[j-1] >= v) {
					t.Fatalf("part %d lists node %d out of order or of part %d", i, v, p.PartOf[v])
				}
			}
			// Connectivity, by a BFS independent of the decoder's.
			seen := map[int]bool{part[0]: true}
			queue := []int{part[0]}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, a := range g.Neighbors(v) {
					if p.PartOf[a.To] == i && !seen[a.To] {
						seen[a.To] = true
						queue = append(queue, a.To)
					}
				}
			}
			if len(seen) != len(part) {
				t.Fatalf("part %d: %d of %d nodes reachable inside it", i, len(seen), len(part))
			}
		}
		if sum != covered {
			t.Fatalf("parts list %d nodes, PartOf covers %d", sum, covered)
		}
		if re := encodePartition(p); !bytes.Equal(re, payload) {
			t.Fatalf("decoded partition re-encodes to different bytes")
		}
	})
}
