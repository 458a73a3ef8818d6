package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// Version 1 of the partition and shortcut payloads is read but no longer
// written. The encoders below are the ones earlier releases persisted
// through, kept as the compatibility oracle: they write the records an old
// data directory or an un-upgraded peer holds.

// encodePartitionV1 renders a version 1 partition payload: the version
// byte and the canonical encoding itself — big-endian uint64 n and k, then
// each node's canonical label, 2^64-1 for an uncovered node.
func encodePartitionV1(p *partition.Partition) []byte {
	rank := p.CanonicalRanks(nil)
	b := make([]byte, 1, 1+16+8*len(p.PartOf))
	b[0] = partitionPayloadV1
	b = binary.BigEndian.AppendUint64(b, uint64(len(p.PartOf)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(rank)))
	for _, i := range p.PartOf {
		l := ^uint64(0) // uncovered
		if i >= 0 {
			l = uint64(rank[i])
		}
		b = binary.BigEndian.AppendUint64(b, l)
	}
	return b
}

// encodeShortcutV1 renders a version 1 shortcut payload: version 2's
// layout plus the tree depth after the iterations and, after the build
// cost, a flag byte and the restriction tree (uvarint root, uvarint node
// count, then each node's parent-edge ID or -1). It writes whatever tree
// and depth res carries, so a test can forge either.
func encodeShortcutV1(graphFP service.Fingerprint, opts shortcut.Options, res *shortcut.Result,
	buildTime time.Duration) []byte {

	s := res.Shortcut
	rank, byRank := partRanks(s.Parts, nil)
	b := []byte{shortcutPayloadV1}
	b = binary.BigEndian.AppendUint64(b, uint64(graphFP))
	b = binary.BigEndian.AppendUint64(b, uint64(service.FingerprintPartitionRanks(s.Parts, rank)))
	for _, v := range [...]int{opts.Delta, opts.MaxDelta, opts.CongestionFactor, opts.BlockFactor, opts.MaxIterations} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range [...]int{res.Delta, res.CongestionThreshold, res.BlockBudget, res.Iterations, res.TreeDepth} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, buildTime.Nanoseconds())
	if t := s.Tree; t != nil {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(t.Root))
		b = binary.AppendUvarint(b, uint64(len(t.Parent)))
		for v := range t.Parent {
			if t.Parent[v] < 0 || t.ParentEdge[v] < 0 {
				b = binary.AppendVarint(b, -1)
			} else {
				b = binary.AppendVarint(b, int64(t.ParentEdge[v]))
			}
		}
	} else {
		b = append(b, 0)
	}
	k := len(s.H)
	b = binary.AppendUvarint(b, uint64(k))
	bitmap := len(b)
	b = append(b, make([]byte, (k+7)/8)...)
	for i, c := range s.Covered {
		if c {
			b[bitmap+int(rank[i]/8)] |= 1 << (rank[i] % 8)
		}
	}
	for _, i := range byRank {
		if !s.Covered[i] {
			continue
		}
		h := slices.Sorted(slices.Values(s.H[i]))
		b = binary.AppendUvarint(b, uint64(len(h)))
		prev := 0
		for j, id := range h {
			if j == 0 {
				b = binary.AppendUvarint(b, uint64(id))
			} else {
				b = binary.AppendUvarint(b, uint64(id-prev))
			}
			prev = id
		}
	}
	return b
}

// putShortcutV1 writes a shortcut the way an earlier release's PutShortcut
// did: the version 1 partition record unless one is live, then the
// version 1 shortcut record, unconditionally.
func putShortcutV1(t testing.TB, c *kvCore, key, graphFP service.Fingerprint, opts shortcut.Options,
	res *shortcut.Result, buildTime time.Duration) {
	t.Helper()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	parts := res.Shortcut.Parts
	if pfp := service.FingerprintPartition(parts); !c.has(kindPartition, pfp) {
		if err := c.putRecord(kindPartition, pfp, encodePartitionV1(parts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.putRecord(kindShortcut, key, encodeShortcutV1(graphFP, opts, res, buildTime)); err != nil {
		t.Fatal(err)
	}
}

// sameResult fails unless got is want as the store serves it: the same
// metadata and tree depth, g's BFS tree, and the same H sets and coverage
// by canonical part rank.
func sameResult(t *testing.T, what string, got, want *shortcut.Result) {
	t.Helper()
	type meta struct{ delta, threshold, budget, iterations, depth int }
	mg := meta{got.Delta, got.CongestionThreshold, got.BlockBudget, got.Iterations, got.TreeDepth}
	mw := meta{want.Delta, want.CongestionThreshold, want.BlockBudget, want.Iterations, want.TreeDepth}
	if mg != mw {
		t.Errorf("%s: metadata %+v, a fresh build has %+v", what, mg, mw)
	}
	gs, ws := got.Shortcut, want.Shortcut
	if gs.Tree.Root != ws.Tree.Root || !slices.Equal(gs.Tree.ParentEdge, ws.Tree.ParentEdge) {
		t.Errorf("%s: not restricted to the fresh build's tree", what)
	}
	if !sameCanonicalH(canonicalH(gs), canonicalH(ws)) {
		t.Errorf("%s: H sets differ from a fresh build's", what)
	}
	gr, _ := partRanks(gs.Parts, nil)
	wr, _ := partRanks(ws.Parts, nil)
	for i, c := range gs.Covered {
		if j := slices.Index(wr, gr[i]); j < 0 || ws.Covered[j] != c {
			t.Errorf("%s: part of rank %d covered=%v, a fresh build differs", what, gr[i], c)
		}
	}
}

// TestUpgradeFromV1: a data directory an earlier release wrote — version 1
// grid, torus and random records, some in sealed (mapped) segments and
// some in the active one — reopens and verifies clean, decodes to what a
// fresh build gives, serves every key from the store with no build, and
// keeps its bytes when the same key is put again. Its records verify as
// peer records and import into an upgraded node as they are.
func TestUpgradeFromV1(t *testing.T) {
	type rec struct {
		spec, parts string
		seed        int64
		fp, key     service.Fingerprint
		res         *shortcut.Result
	}
	recs := []*rec{
		{spec: "grid:12x12", parts: "blobs:8", seed: 1},
		{spec: "torus:9x9", parts: "blobs:6", seed: 2},
		{spec: "random:60,150", parts: "blobs:5", seed: 3},
		{spec: "grid:12x12", parts: "blobs:8", seed: 4},
	}
	dir := t.TempDir()
	opts := Options{NoSync: true, SegmentBytes: 4 << 10}
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		g, p, res := buildFixture(t, r.spec, r.parts, r.seed)
		r.fp, r.res = service.FingerprintGraph(g), res
		r.key = service.ShortcutKey(r.fp, p, shortcut.Options{})
		if err := w.PutGraph(r.fp, g); err != nil {
			t.Fatal(err)
		}
		putShortcutV1(t, &w.kvCore, r.key, r.fp, shortcut.Options{}, res, time.Duration(r.seed)*time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}
	st := s.OpenStats()
	var sealed, active int
	for _, ri := range s.Records() {
		if ri.Kind == "shortcut" {
			if ri.Segment < st.Segments {
				sealed++
			} else {
				active++
			}
		}
	}
	if sealed == 0 || active == 0 {
		t.Fatalf("%d shortcut records in sealed segments and %d in the active one, want both", sealed, active)
	}

	fresh := mustOpen(t, t.TempDir())
	defer fresh.Close()
	e := service.New(service.Config{Store: s})
	defer e.Close()
	if _, err := e.WarmStart(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		g, ok, err := s.GetGraph(r.fp)
		if err != nil || !ok {
			t.Fatalf("%s: GetGraph ok=%v err=%v", r.spec, ok, err)
		}
		p, err := cli.ParsePartition(g, r.parts, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shortcut.Build(g, p, shortcut.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []*partition.Partition{p, nil} {
			got, bt, ok, err := s.GetShortcut(r.key, g, parts)
			if err != nil || !ok || bt != time.Duration(r.seed)*time.Millisecond {
				t.Fatalf("%s: GetShortcut(key-only=%v) ok=%v bt=%v err=%v", r.spec, parts == nil, ok, bt, err)
			}
			sameResult(t, r.spec, got, want)
		}

		c, _, err := e.Build(context.Background(), service.BuildRequest{Graph: r.fp, Key: r.key, Spec: r.parts, Seed: r.seed})
		if err != nil || c.Source != service.SourceStore {
			t.Fatalf("%s: engine Build err=%v, want a store hit", r.spec, err)
		}

		old, _, _ := s.ShortcutPayload(r.key)
		old = slices.Clone(old)
		if err := s.PutShortcut(r.key, r.fp, p, shortcut.Options{}, want, time.Second); err != nil {
			t.Fatal(err)
		}
		if now, _, _ := s.ShortcutPayload(r.key); old[0] != shortcutPayloadV1 || !bytes.Equal(now, old) {
			t.Errorf("%s: PutShortcut of a key with a good version 1 record rewrote it", r.spec)
		}

		pr, ok, err := s.ShortcutRecord(r.key)
		if err != nil || !ok {
			t.Fatalf("%s: ShortcutRecord ok=%v err=%v", r.spec, ok, err)
		}
		if _, _, got, _, err := VerifyPeerRecord(pr); err != nil {
			t.Errorf("%s: VerifyPeerRecord of a version 1 record: %v", r.spec, err)
		} else {
			sameResult(t, r.spec+" (peer)", got, want)
		}
		if _, wrote, err := fresh.ImportShortcut(pr); err != nil || !wrote {
			t.Errorf("%s: ImportShortcut of a version 1 record: wrote=%v err=%v", r.spec, wrote, err)
		}
	}
	if st := e.Stats(); st.Builds != 0 || st.StoreHits != uint64(len(recs)) {
		t.Errorf("engine: %d builds and %d store hits, want 0 and %d", st.Builds, st.StoreHits, len(recs))
	}
	if problems := fresh.Verify(); len(problems) != 0 {
		t.Errorf("verify after importing version 1 records: %v", problems)
	}

	// A version 2 record verifies as a peer record too.
	src, _, key := peerFixture(t, "grid:12x12", "blobs:8", 1)
	pr, ok, err := src.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord ok=%v err=%v", ok, err)
	}
	if pr.ShortcutPayload[0] != shortcutPayloadVersion || pr.PartitionPayload[0] != partitionPayloadVersion {
		t.Fatalf("PutShortcut wrote versions %d and %d, want %d", pr.ShortcutPayload[0], pr.PartitionPayload[0],
			shortcutPayloadVersion)
	}
	if _, _, got, _, err := VerifyPeerRecord(pr); err != nil {
		t.Errorf("VerifyPeerRecord of a version 2 record: %v", err)
	} else {
		sameResult(t, "version 2 peer record", got, recs[0].res)
	}
}

// TestForgedDepthRefused: the key does not cover a record's metadata, so a
// version 1 record whose stored tree depth was rewritten (here 6 to 60 on
// grid:6x6, inflating the (b+1)(2D+1) dilation bound) must be refused by
// every decoder, like a forged tree.
func TestForgedDepthRefused(t *testing.T) {
	g, p, res := buildFixture(t, "grid:6x6", "blobs:4", 1)
	if res.TreeDepth != 6 {
		t.Fatalf("fixture tree depth %d, want 6", res.TreeDepth)
	}
	forged := *res
	forged.TreeDepth = 60
	fp := service.FingerprintGraph(g)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	putShortcutV1(t, &s.kvCore, key, fp, shortcut.Options{}, &forged, time.Millisecond)
	for _, parts := range []*partition.Partition{p, nil} {
		if _, _, _, err := s.GetShortcut(key, g, parts); !errors.Is(err, errTreeNotCanonical) {
			t.Errorf("GetShortcut (partition given: %v): %v, want errTreeNotCanonical", parts != nil, err)
		}
	}
	rec, ok, err := s.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord ok=%v err=%v", ok, err)
	}
	if _, _, err := DecodeShortcutPayload(rec.ShortcutPayload, key, g, p); !errors.Is(err, errTreeNotCanonical) {
		t.Errorf("DecodeShortcutPayload: %v, want errTreeNotCanonical", err)
	}
	if _, _, _, _, err := VerifyPeerRecord(rec); !errors.Is(err, errTreeNotCanonical) {
		t.Errorf("VerifyPeerRecord: %v, want errTreeNotCanonical", err)
	}
	// The same record with its true depth decodes.
	good := encodeShortcutV1(fp, shortcut.Options{}, res, time.Millisecond)
	if _, _, err := DecodeShortcutPayload(good, key, g, p); err != nil {
		t.Errorf("DecodeShortcutPayload of the unforged record: %v", err)
	}
}

// TestEngineReplacesRefusedRecord: a version 1 record whose tree is not
// the graph's BFS tree fails the store read, so the engine counts one
// store error and rebuilds, and the persist replaces the record: the next
// miss on the key is a store hit.
func TestEngineReplacesRefusedRecord(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer st.Close()
	g, p, forged := forgedTreeFixture(t, "grid:12x12", "blobs:8", 3)
	fp := service.FingerprintGraph(g)
	if err := st.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	putShortcutV1(t, &st.kvCore, key, fp, shortcut.Options{}, forged, 0)
	req := service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:8", Seed: 3}
	serve := func(want service.BuildSource) service.Stats {
		t.Helper()
		e := service.New(service.Config{Store: st})
		defer e.Close() // drains the detached persist
		if _, err := e.WarmStart(); err != nil {
			t.Fatal(err)
		}
		c, _, err := e.Build(context.Background(), req)
		if err != nil || c.Source != want {
			t.Fatalf("Build: err=%v source=%v, want %v", err, c.Source, want)
		}
		return e.Stats()
	}
	if s := serve(service.SourceBuilt); s.StoreErrors != 1 || s.Builds != 1 {
		t.Errorf("refused record: %d store errors and %d builds, want 1 and 1", s.StoreErrors, s.Builds)
	}
	if s := serve(service.SourceStore); s.StoreErrors != 0 || s.Builds != 0 || s.StoreHits != 1 {
		t.Errorf("after the rebuild: %d store errors, %d builds, %d store hits; want 0, 0, 1",
			s.StoreErrors, s.Builds, s.StoreHits)
	}
	if payload, _, _ := st.ShortcutPayload(key); payload[0] != shortcutPayloadVersion {
		t.Errorf("the replacing record has version %d, want %d", payload[0], shortcutPayloadVersion)
	}
}

// TestPayloadV2Sizes pins what version 2 saves on grid:32x32 blobs:16, the
// store-mixed benchmark's shape: the partition payload is one byte per
// node after a 4-byte head, and the shortcut payload, without the tree,
// at most 55% of version 1's.
func TestPayloadV2Sizes(t *testing.T) {
	g, p, res := buildFixture(t, "grid:32x32", "blobs:16", 1)
	if got, want := len(encodePartition(p)), 1+2+1+1024; got != want {
		t.Errorf("partition payload %d bytes, want %d", got, want)
	}
	fp := service.FingerprintGraph(g)
	v2, _, err := encodeShortcut(fp, shortcut.Options{}, res, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeShortcutV1(fp, shortcut.Options{}, res, time.Millisecond)
	if 100*len(v2) > 55*len(v1) {
		t.Errorf("shortcut payload %d bytes, version 1 %d: want at most 55%%", len(v2), len(v1))
	}
	t.Logf("grid:32x32 blobs:16: partition %d bytes (version 1 %d), shortcut %d (version 1 %d)",
		len(encodePartition(p)), len(encodePartitionV1(p)), len(v2), len(v1))
}

// TestEncodeRefusesOtherTrees: a result restricted to a tree other than
// the graph's BFS tree, or to none, is not written, since a payload
// without a tree would be read back on the graph's.
func TestEncodeRefusesOtherTrees(t *testing.T) {
	g, p, forged := forgedTreeFixture(t, "grid:6x6", "blobs:4", 1)
	fp := service.FingerprintGraph(g)
	_, _, res := buildFixture(t, "grid:6x6", "blobs:4", 1)
	treeless := *res.Shortcut
	treeless.Tree = nil
	for name, r := range map[string]*shortcut.Result{
		"other tree": forged,
		"no tree":    {Shortcut: &treeless, TreeDepth: res.TreeDepth},
	} {
		if _, err := EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, r, 0); !errors.Is(err, errTreeNotCanonical) {
			t.Errorf("%s: EncodeShortcutRecordPayload %v, want errTreeNotCanonical", name, err)
		}
	}
	// The graph's own tree from a FromBFS at its root is the same tree.
	bt := g.BFSTree()
	own, err := tree.FromBFS(g, bt.Root)
	if err != nil {
		t.Fatal(err)
	}
	copied := *res.Shortcut
	copied.Tree = own
	if _, err := EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, &shortcut.Result{Shortcut: &copied}, 0); err != nil {
		t.Errorf("a copy of the graph's tree: %v", err)
	}
}
