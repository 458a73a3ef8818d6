package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// testOpts skips fsync so the suite is not bound by disk flush latency.
var testOpts = Options{NoSync: true}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildFixture constructs a (graph, partition, shortcut) triple from specs.
func buildFixture(t testing.TB, spec, partSpec string, seed int64) (
	*graph.Graph, *partition.Partition, *shortcut.Result) {
	t.Helper()
	g, _, err := cli.ParseGraph(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.ParsePartition(g, partSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(g, p, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, p, res
}

// canonicalH returns the per-part H sets, sorted and indexed by canonical
// part rank — the representation-independent identity of a shortcut on a
// canonical graph, whose edge IDs are canonical.
func canonicalH(s *shortcut.Shortcut) [][]int32 {
	rank, _ := partRanks(s.Parts, nil)
	out := make([][]int32, len(s.H))
	for i, h := range s.H {
		if !s.Covered[i] {
			continue
		}
		c := make([]int32, len(h))
		for j, id := range h {
			c[j] = int32(id)
		}
		slices.Sort(c)
		out[rank[i]] = c
	}
	return out
}

func sameCanonicalH(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestGraphRoundTripFamilies persists one graph per family and checks the
// decoded representative fingerprints back to the same key, across a
// reopen.
func TestGraphRoundTripFamilies(t *testing.T) {
	specs := []string{
		"grid:6x7", "torus:5x5", "wheel:40", "cycle:30", "path:17",
		"complete:8", "ktree:60,3", "random:50,120", "lb:5,12",
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := make(map[service.Fingerprint]string)
	for _, spec := range specs {
		g, _, err := cli.ParseGraph(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatalf("PutGraph(%s): %v", spec, err)
		}
		want[fp] = spec
	}
	// A weighted multigraph with parallel edges exercises the canonical
	// tie handling.
	mg := graph.New(3)
	mg.AddWeightedEdge(0, 1, 2.5)
	mg.AddWeightedEdge(1, 0, 2.5) // parallel, same weight after normalization
	mg.AddWeightedEdge(1, 2, 0.25)
	mfp := service.FingerprintGraph(mg)
	if err := s.PutGraph(mfp, mg); err != nil {
		t.Fatal(err)
	}
	want[mfp] = "multigraph"
	s.Close()

	s = mustOpen(t, dir)
	defer s.Close()
	got := 0
	err := s.EachGraph(func(fp service.Fingerprint, g *graph.Graph) error {
		spec, ok := want[fp]
		if !ok {
			return fmt.Errorf("unexpected graph %s", fp)
		}
		if re := service.FingerprintGraph(g); re != fp {
			return fmt.Errorf("%s: decoded graph fingerprints to %s, want %s", spec, re, fp)
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("%s: %v", spec, err)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("reopened store holds %d graphs, want %d", got, len(want))
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}
}

// TestShortcutRoundTripFamilies builds, persists, reopens, and reloads
// shortcuts across workload families, asserting the reconstruction is
// canonically identical and measures identically.
func TestShortcutRoundTripFamilies(t *testing.T) {
	cases := []struct{ spec, parts string }{
		{"grid:8x8", "rows:8x8"},
		{"grid:10x10", "blobs:10"},
		{"torus:6x6", "blobs:6"},
		{"wheel:60", "rim"},
		{"ktree:80,3", "blobs:8"},
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	type saved struct {
		key   service.Fingerprint
		g     *graph.Graph
		p     *partition.Partition
		res   *shortcut.Result
		wantH [][]int32
	}
	var all []saved
	for _, c := range cases {
		g, p, res := buildFixture(t, c.spec, c.parts, 3)
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, 123*time.Millisecond); err != nil {
			t.Fatalf("PutShortcut(%s): %v", c.spec, err)
		}
		all = append(all, saved{key, g, p, res, canonicalH(res.Shortcut)})
	}
	s.Close()

	// Reopen: the serving representative is now the canonical decode, as
	// after a daemon restart.
	s = mustOpen(t, dir)
	defer s.Close()
	for i, c := range cases {
		sv := all[i]
		rep, ok, err := s.GetGraph(service.FingerprintGraph(sv.g))
		if err != nil || !ok {
			t.Fatalf("%s: GetGraph ok=%v err=%v", c.spec, ok, err)
		}
		// Re-derive the request partition against the new representative
		// exactly as the daemon would (canonical labels are
		// representation-independent).
		labels := make([]int, len(sv.p.PartOf))
		copy(labels, sv.p.PartOf)
		parts, err := partition.FromLabels(rep, labels)
		if err != nil {
			t.Fatal(err)
		}
		res, bt, ok, err := s.GetShortcut(sv.key, rep, parts)
		if err != nil {
			t.Fatalf("%s: GetShortcut: %v", c.spec, err)
		}
		if !ok {
			t.Fatalf("%s: shortcut %s missing after reopen", c.spec, sv.key)
		}
		if bt != 123*time.Millisecond {
			t.Errorf("%s: build time %v, want 123ms", c.spec, bt)
		}
		if res.Delta != sv.res.Delta || res.Iterations != sv.res.Iterations ||
			res.TreeDepth != sv.res.TreeDepth {
			t.Errorf("%s: metadata %+v, want delta=%d iters=%d depth=%d", c.spec,
				res, sv.res.Delta, sv.res.Iterations, sv.res.TreeDepth)
		}
		if !sameCanonicalH(canonicalH(res.Shortcut), sv.wantH) {
			t.Errorf("%s: reconstructed H sets differ canonically", c.spec)
		}
		if got, want := shortcut.Measure(res.Shortcut), shortcut.Measure(sv.res.Shortcut); got != want {
			t.Errorf("%s: quality %+v, want %+v", c.spec, got, want)
		}
		if res.Shortcut.Tree == nil {
			t.Errorf("%s: restriction tree not reconstructed", c.spec)
		}
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("verify after reopen: %v", problems)
	}
}

// writeFixture populates a store with two graphs and one shortcut and
// returns the shortcut key plus the graph fingerprints.
func writeFixture(t *testing.T, dir string) (key, fpA, fpB service.Fingerprint) {
	t.Helper()
	s := mustOpen(t, dir)
	defer s.Close()
	gA, pA, resA := buildFixture(t, "grid:6x6", "blobs:6", 2)
	fpA = service.FingerprintGraph(gA)
	if err := s.PutGraph(fpA, gA); err != nil {
		t.Fatal(err)
	}
	key = service.ShortcutKey(fpA, pA, shortcut.Options{})
	if err := s.PutShortcut(key, fpA, pA, shortcut.Options{}, resA, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	gB, _, err := cli.ParseGraph("cycle:20", 1)
	if err != nil {
		t.Fatal(err)
	}
	fpB = service.FingerprintGraph(gB)
	if err := s.PutGraph(fpB, gB); err != nil {
		t.Fatal(err)
	}
	return key, fpA, fpB
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	seqs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		out[i] = filepath.Join(dir, segName(seq))
	}
	return out
}

// TestTruncatedTail cuts bytes off the end of the segment (a torn append)
// and asserts the store opens, repairs, and keeps every earlier record.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	key, fpA, fpB := writeFixture(t, dir)
	segs := segFiles(t, dir)
	path := segs[len(segs)-1]
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The cycle graph record (fpB) was written last; tearing 5 bytes off
	// destroys it and only it.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	st := s.OpenStats()
	if st.TruncatedBytes == 0 {
		t.Error("open repaired nothing, want a truncated tail")
	}
	if _, ok, _ := s.GetGraph(fpB); ok {
		t.Error("torn record still live")
	}
	if _, ok, err := s.GetGraph(fpA); !ok || err != nil {
		t.Errorf("earlier graph lost: ok=%v err=%v", ok, err)
	}
	if st.Shortcuts != 1 {
		t.Errorf("shortcuts = %d, want 1", st.Shortcuts)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify after repair: %v", problems)
	}
	// The repaired store accepts appends again and they survive a reopen.
	gB, _, _ := cli.ParseGraph("cycle:20", 1)
	if err := s.PutGraph(fpB, gB); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir)
	defer s.Close()
	if _, ok, _ := s.GetGraph(fpB); !ok {
		t.Error("re-appended record lost after reopen")
	}
	_ = key
}

// TestFlippedChecksumByte corrupts one CRC byte of a mid-file record and
// asserts exactly that record is skipped while the store still opens and
// later records survive.
func TestFlippedChecksumByte(t *testing.T) {
	dir := t.TempDir()
	_, fpA, fpB := writeFixture(t, dir)
	segs := segFiles(t, dir)
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first record after the magic is the grid graph record: flip a
	// byte inside its CRC field (offset 13..16 of the frame).
	data[len(segMagic)+14] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	st := s.OpenStats()
	if st.CorruptSkipped != 1 {
		t.Errorf("CorruptSkipped = %d, want 1", st.CorruptSkipped)
	}
	if _, ok, _ := s.GetGraph(fpA); ok {
		t.Error("checksum-corrupt record still live")
	}
	if _, ok, err := s.GetGraph(fpB); !ok || err != nil {
		t.Errorf("record after the corrupt one lost: ok=%v err=%v", ok, err)
	}
	// The shortcut record now references a missing graph; Verify must say
	// so rather than crash.
	problems := s.Verify()
	if len(problems) != 1 || problems[0].Kind != "shortcut" {
		t.Errorf("verify = %v, want exactly the orphaned shortcut", problems)
	}
}

// TestConcurrentWriteWhileRead hammers the store with concurrent writers
// and readers; run under -race this is the data-race proof.
func TestConcurrentWriteWhileRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	g, p, res := buildFixture(t, "grid:6x6", "blobs:4", 1)
	fp := service.FingerprintGraph(g)
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				gg := graph.RandomConnected(20, 30, rng)
				if err := s.PutGraph(service.FingerprintGraph(gg), gg); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, ok, err := s.GetShortcut(key, g, p); err != nil || !ok {
					errs <- fmt.Errorf("GetShortcut ok=%v err=%v", ok, err)
					return
				}
				if err := s.EachGraph(func(service.Fingerprint, *graph.Graph) error { return nil }); err != nil {
					errs <- err
					return
				}
				s.Records()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.OpenStats(); st.Graphs != 81 {
		t.Errorf("graphs = %d, want 81", st.Graphs)
	}
}

// TestDeleteAndGC tombstones a graph, asserts its shortcut dies with it
// across a reopen, and checks GC reclaims the space and drops unreferenced
// partitions while the survivors verify clean.
func TestDeleteAndGC(t *testing.T) {
	dir := t.TempDir()
	key, fpA, fpB := writeFixture(t, dir)
	s := mustOpen(t, dir)
	defer s.Close()
	if err := s.DeleteGraph(fpA); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteGraph(fpA); err != nil { // idempotent
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if _, ok, _ := s.GetGraph(fpA); ok {
			t.Errorf("%s: deleted graph still live", stage)
		}
		g, ok, _ := s.GetGraph(fpB)
		if !ok {
			t.Fatalf("%s: unrelated graph lost", stage)
		}
		if _, _, ok, _ := s.GetShortcut(key, g, nil); ok {
			t.Errorf("%s: dependent shortcut survived the tombstone", stage)
		}
	}
	check("after delete")
	s.Close()
	s = mustOpen(t, dir)
	check("after reopen")
	if st := s.OpenStats(); st.TombstonesApplied == 0 {
		t.Error("reopen applied no tombstone")
	}

	before := s.OpenStats().Bytes
	gc, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gc.ReclaimedBytes <= 0 {
		t.Errorf("gc reclaimed %d bytes, want > 0 (before: %d)", gc.ReclaimedBytes, before)
	}
	if gc.DroppedRecords == 0 {
		t.Error("gc dropped nothing, want the orphaned partition gone")
	}
	if st := s.OpenStats(); st.Partitions != 0 || st.Shortcuts != 0 || st.Graphs != 1 {
		t.Errorf("post-gc counts = %+v, want exactly the surviving graph", st)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify after gc: %v", problems)
	}
	check("after gc")
	// The compacted store must replay identically.
	s.Close()
	s = mustOpen(t, dir)
	defer s.Close()
	check("after gc reopen")
	// And still accept writes.
	gA, _, _ := cli.ParseGraph("grid:6x6", 2)
	if err := s.PutGraph(service.FingerprintGraph(gA), gA); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRotation forces tiny segments and checks records span
// multiple files and replay across all of them.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := make(map[service.Fingerprint]bool)
	for i := 0; i < 12; i++ {
		g := graph.RandomConnected(12, 20, rng)
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		want[fp] = true
	}
	s.Close()
	segs, _ := listSegments(osFS{}, dir)
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(segs))
	}
	s, err = Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := 0
	s.EachGraph(func(fp service.Fingerprint, g *graph.Graph) error {
		if !want[fp] {
			t.Errorf("unexpected graph %s", fp)
		}
		got++
		return nil
	})
	if got != len(want) {
		t.Errorf("replayed %d graphs across segments, want %d", got, len(want))
	}
}

// TestPutDedup asserts re-putting known content writes nothing.
func TestPutDedup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	g, p, res := buildFixture(t, "grid:5x5", "blobs:5", 1)
	fp := service.FingerprintGraph(g)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	for i := 0; i < 3; i++ {
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := s.OpenStats()
	if st.Graphs != 1 || st.Partitions != 1 || st.Shortcuts != 1 {
		t.Errorf("dedup failed: %+v", st)
	}
	if recs := s.Records(); len(recs) != 3 {
		t.Errorf("Records() = %d entries, want 3", len(recs))
	}
}

// TestPutShortcutRequiresLiveGraph pins the tombstone race fix: a detached
// persist arriving after DeleteGraph must not resurrect an orphan shortcut
// record.
func TestPutShortcutRequiresLiveGraph(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	g, p, res := buildFixture(t, "grid:5x5", "blobs:5", 1)
	fp := service.FingerprintGraph(g)
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteGraph(fp); err != nil {
		t.Fatal(err)
	}
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.Shortcuts != 0 || st.Partitions != 0 {
		t.Errorf("orphan records written after tombstone: %+v", st)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify: %v", problems)
	}
}

// TestShortcutsNeedCanonicalGraphs pins the invariant that replaced the
// edge permutations: a shortcut is encoded and decoded only over a graph
// in canonical form, whose edge IDs are the payload's. Two insertion
// orders of one weighted 6-cycle canonicalize to the same graph, so a
// delete, a re-ingest in the other order and a rebuild store the same
// bytes; a graph left in insertion order is refused on both sides.
func TestShortcutsNeedCanonicalGraphs(t *testing.T) {
	mk := func(reversed bool) *graph.Graph {
		// Distinct weights make every edge's canonical position unique,
		// so a mistranslated ID would visibly misroute.
		g := graph.New(6)
		type e struct {
			u, v int
			w    float64
		}
		es := []e{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 5, 5}, {5, 0, 6}}
		if reversed {
			slices.Reverse(es)
		}
		for _, x := range es {
			g.AddWeightedEdge(x.u, x.v, x.w)
		}
		return g
	}
	build := func(g *graph.Graph) (*partition.Partition, *shortcut.Result) {
		p, err := partition.FromLabels(g, []int{0, 0, 0, 1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := shortcut.Build(g, p, shortcut.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p, res
	}
	raw := mk(false)
	if graph.IsCanonical(raw) {
		t.Fatal("fixture must start out of canonical order")
	}
	gA, gB := graph.Canonical(raw), graph.Canonical(mk(true))
	fp := service.FingerprintGraph(gA)
	if service.FingerprintGraph(gB) != fp || service.FingerprintGraph(raw) != fp {
		t.Fatal("fixture graphs must share a fingerprint")
	}
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.PutGraph(fp, gA); err != nil {
		t.Fatal(err)
	}

	pRaw, resRaw := build(raw)
	key := service.ShortcutKey(fp, pRaw, shortcut.Options{})
	if err := s.PutShortcut(key, fp, pRaw, shortcut.Options{}, resRaw, time.Millisecond); !errors.Is(err, errNotCanonical) {
		t.Fatalf("PutShortcut over a non-canonical graph: %v, want errNotCanonical", err)
	}
	if _, err := EncodeShortcutRecordPayload(fp, pRaw, shortcut.Options{}, resRaw, time.Millisecond); !errors.Is(err, errNotCanonical) {
		t.Fatalf("EncodeShortcutRecordPayload over a non-canonical graph: %v, want errNotCanonical", err)
	}

	pA, resA := build(gA)
	if err := s.PutShortcut(key, fp, pA, shortcut.Options{}, resA, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.GetShortcut(key, raw, pRaw); !errors.Is(err, errNotCanonical) {
		t.Fatalf("GetShortcut against a non-canonical graph: %v, want errNotCanonical", err)
	}
	first, _, _ := s.ShortcutPayload(key)
	first = slices.Clone(first)

	// Delete, re-ingest the reversed order, rebuild.
	if err := s.DeleteGraph(fp); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraph(fp, gB); err != nil {
		t.Fatal(err)
	}
	pB, resB := build(gB)
	if err := s.PutShortcut(key, fp, pB, shortcut.Options{}, resB, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	again, ok, err := s.ShortcutPayload(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutPayload ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(again, first) {
		t.Error("the rebuild on the re-ingested graph stored different bytes")
	}
	got, _, ok, err := s.GetShortcut(key, gB, pB)
	if err != nil || !ok {
		t.Fatalf("GetShortcut ok=%v err=%v", ok, err)
	}
	if !sameCanonicalH(canonicalH(got.Shortcut), canonicalH(resA.Shortcut)) {
		t.Error("round trip through the re-ingested representative changed the H sets")
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify: %v", problems)
	}
}

// forgedTreeFixture builds spec's shortcut restricted to a BFS tree rooted
// one node past the graph's chosen root, under the key of the canonical
// build: a result on a tree that is not the graph's BFS tree.
func forgedTreeFixture(t testing.TB, spec, partSpec string, seed int64) (
	*graph.Graph, *partition.Partition, *shortcut.Result) {
	t.Helper()
	g, p, _ := buildFixture(t, spec, partSpec, seed)
	other, err := tree.FromBFS(g, (graph.ChooseRoot(g)+1)%g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(g, p, shortcut.Options{Tree: other})
	if err != nil {
		t.Fatal(err)
	}
	return g, p, res
}

// TestForgedTreeRefused: a result whose tree is not the graph's BFS tree
// is never written, since a payload stores no tree and would read back on
// the graph's: the put fails and leaves no record, and the canonical build
// is then written under its key and served.
func TestForgedTreeRefused(t *testing.T) {
	g, p, forged := forgedTreeFixture(t, "grid:6x6", "blobs:4", 1)
	fp := service.FingerprintGraph(g)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, forged, time.Millisecond); !errors.Is(err, errTreeNotCanonical) {
		t.Fatalf("PutShortcut of the forged result: %v, want errTreeNotCanonical", err)
	}
	if st := s.OpenStats(); st.Shortcuts != 0 || st.Partitions != 0 {
		t.Fatalf("the refused put left %d shortcut and %d partition records", st.Shortcuts, st.Partitions)
	}

	_, _, built := buildFixture(t, "grid:6x6", "blobs:4", 1)
	if err := s.PutShortcut(key, fp, p, shortcut.Options{}, built, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := s.GetShortcut(key, g, nil)
	if err != nil || !ok {
		t.Fatalf("GetShortcut after the canonical build: ok=%v err=%v", ok, err)
	}
	if !sameCanonicalH(canonicalH(got.Shortcut), canonicalH(built.Shortcut)) {
		t.Error("the record does not hold the canonical build")
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify: %v", problems)
	}
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

// TestVerifySurvivesEmptyPartitionPayload pins the zero-length-payload fix:
// a CRC-valid partition record with an empty payload must surface as a
// Problem, never panic the integrity checker.
func TestVerifySurvivesEmptyPartitionPayload(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Close()
	// Hand-craft a framed 'P' record with plen = 0 and a correct CRC.
	frame := make([]byte, frameHdrSize)
	frame[0] = kindPartition
	key := service.Fingerprint(0xdeadbeef)
	binaryPut := func() {
		frame[1] = 0
		for i := 0; i < 8; i++ {
			frame[1+i] = byte(uint64(key) >> (8 * (7 - i)))
		}
	}
	binaryPut()
	crc := crc32.Checksum(frame[:9], crcTable)
	crc = crc32.Update(crc, crcTable, frame[9:13])
	for i := 0; i < 4; i++ {
		frame[13+i] = byte(crc >> (8 * (3 - i)))
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s = mustOpen(t, dir)
	defer s.Close()
	problems := s.Verify()
	if len(problems) != 1 || problems[0].Kind != "partition" {
		t.Errorf("verify = %v, want exactly one partition problem", problems)
	}
}

// TestJobRecords exercises the 'J' record kind: newest-wins updates,
// replay across reopen, GC survival, verification, and corrupt-payload
// reporting.
func TestJobRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	mkrec := func(id uint64, state jobs.State, created int64) []byte {
		payload, err := jobs.EncodeRecord(jobs.Record{
			ID:        jobs.ID(id),
			Kind:      "shortcut",
			Request:   []byte(`{"graph":"x"}`),
			State:     state,
			CreatedNs: created,
		})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	if err := s.PutJob(7, mkrec(7, jobs.Queued, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(9, mkrec(9, jobs.Queued, 200)); err != nil {
		t.Fatal(err)
	}
	// Supersede job 7: running, then done. Newest must win.
	if err := s.PutJob(7, mkrec(7, jobs.Running, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(7, mkrec(7, jobs.Done, 100)); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		payload, ok, err := s.GetJob(7)
		if err != nil || !ok {
			t.Fatalf("%s: GetJob(7) = (ok=%v, %v)", stage, ok, err)
		}
		rec, err := jobs.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != jobs.Done {
			t.Errorf("%s: job 7 state = %s, want the newest record (done)", stage, rec.State)
		}
		var ids []uint64
		if err := s.EachJob(func(id uint64, payload []byte) error {
			if _, err := jobs.DecodeRecord(payload); err != nil {
				return err
			}
			ids = append(ids, id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
			t.Errorf("%s: EachJob ids = %v, want [7 9] ascending", stage, ids)
		}
		if st := s.OpenStats(); st.Jobs != 2 {
			t.Errorf("%s: OpenStats.Jobs = %d, want 2", stage, st.Jobs)
		}
		if problems := s.Verify(); len(problems) != 0 {
			t.Errorf("%s: verify: %v", stage, problems)
		}
	}
	check("fresh")
	s.Close()
	s = mustOpen(t, dir)
	check("after reopen")

	// Records lists jobs with their kind.
	jobsSeen := 0
	for _, r := range s.Records() {
		if r.Kind == "job" {
			jobsSeen++
		}
	}
	if jobsSeen != 2 {
		t.Errorf("Records lists %d job rows, want 2", jobsSeen)
	}

	// GC compacts the superseded versions of job 7 but keeps the live
	// records.
	gc, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gc.ReclaimedBytes <= 0 {
		t.Errorf("gc reclaimed %d bytes, want > 0 (two superseded job records)", gc.ReclaimedBytes)
	}
	check("after gc")

	// A record whose embedded ID disagrees with its key is a verify
	// problem, as is an undecodable payload.
	if err := s.PutJob(11, mkrec(12, jobs.Queued, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(13, []byte{0xff, 'g', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	problems := s.Verify()
	if len(problems) != 2 {
		t.Fatalf("verify problems = %v, want exactly the two bad job records", problems)
	}
	s.Close()
}
