package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// segHashes returns the FNV-1a 64 hash of every segment file in dir, by
// file name.
func segHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, path := range segFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		out[filepath.Base(path)] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

// recordsHash digests a Records listing, locations included.
func recordsHash(recs []RecordInfo) string {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%d/%016x", len(recs), h.Sum64())
}

func sameHashes(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// segmentGolden is what TestSegmentBytesGolden pins for one payload
// version: the segment file hashes before and after the GC, the Records
// listing digests, and the GCStats.
type segmentGolden struct {
	before         map[string]string
	records        string
	gc             GCStats
	after          map[string]string
	recordsAfterGC string
}

// TestSegmentBytesGolden pins the exact on-disk bytes a fixed write
// sequence produces — graph puts, shortcut puts with their partitions, a
// superseded job, a tombstone, a verbatim graph payload, rotation across
// small segments, and a GC — together with the Records listing (record
// locations included) and the GCStats. A change that alters any of them
// would make existing data directories replay differently. The sequence
// runs twice. Once with the shortcuts written as earlier releases wrote
// them, through the version 1 encoders: those hashes were recorded before
// the record index and the segment log were separated, so they are the
// proof that old directories still open and compact unchanged. And once
// through PutShortcut, which writes version 2, pinning the live format.
func TestSegmentBytesGolden(t *testing.T) {
	type putFunc func(s *Store, key, fp service.Fingerprint, p *partition.Partition, res *shortcut.Result, bt time.Duration)
	for _, c := range []struct {
		name string
		put  putFunc
		want segmentGolden
	}{
		{"v1", func(s *Store, key, fp service.Fingerprint, _ *partition.Partition, res *shortcut.Result, bt time.Duration) {
			putShortcutV1(t, &s.kvCore, key, fp, shortcut.Options{}, res, bt)
		}, segmentGolden{
			before: map[string]string{
				"000001.seg": "dee643b7a8a42866",
				"000002.seg": "4770323bc1c89dc5",
				"000003.seg": "c7c81673ca13a3c4",
			},
			records:        "12/bf703e9c7969e91e",
			gc:             GCStats{LiveRecords: 11, LiveBytes: 6933, DroppedRecords: 1, ReclaimedBytes: 1310, Segments: 1},
			after:          map[string]string{"000004.seg": "c9f744106c7ed849"},
			recordsAfterGC: "11/b2d03b199eac7f3b",
		}},
		{"v2", func(s *Store, key, fp service.Fingerprint, p *partition.Partition, res *shortcut.Result, bt time.Duration) {
			if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, bt); err != nil {
				t.Fatal(err)
			}
		}, segmentGolden{
			before: map[string]string{
				"000001.seg": "20498b3e754e6d26",
				"000002.seg": "b8614cf94cb20ced",
				"000003.seg": "27b9aae1a85135a7",
			},
			records:        "12/45ab065d8425ca3d",
			gc:             GCStats{LiveRecords: 11, LiveBytes: 6071, DroppedRecords: 1, ReclaimedBytes: 1052, Segments: 1},
			after:          map[string]string{"000004.seg": "05ef24901aeaac17"},
			recordsAfterGC: "11/2845df564564195b",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := writeGoldenSequence(t, c.put)
			if !sameHashes(got.before, c.want.before) {
				t.Errorf("segment bytes before GC = %#v, want %#v", got.before, c.want.before)
			}
			if got.records != c.want.records {
				t.Errorf("Records before GC = %s, want %s", got.records, c.want.records)
			}
			if got.gc != c.want.gc {
				t.Errorf("GCStats = %+v, want %+v", got.gc, c.want.gc)
			}
			if !sameHashes(got.after, c.want.after) {
				t.Errorf("segment bytes after GC = %#v, want %#v", got.after, c.want.after)
			}
			if got.recordsAfterGC != c.want.recordsAfterGC {
				t.Errorf("Records after GC = %s, want %s", got.recordsAfterGC, c.want.recordsAfterGC)
			}
		})
	}
}

// writeGoldenSequence runs TestSegmentBytesGolden's write sequence in a
// fresh directory, writing each shortcut through put, and returns what the
// test pins. Replay must rebuild the identical index, locations included.
func writeGoldenSequence(t *testing.T,
	put func(s *Store, key, fp service.Fingerprint, p *partition.Partition, res *shortcut.Result, bt time.Duration)) segmentGolden {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }() // s is reopened below

	var fps []service.Fingerprint
	for i, spec := range []string{"grid:6x6", "cycle:30", "wheel:25", "grid:5x8"} {
		g, p, res := buildFixture(t, spec, "blobs:4", 3)
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		put(s, key, fp, p, res, time.Duration(i+1)*time.Millisecond)
		fps = append(fps, fp)
	}
	for _, state := range []jobs.State{jobs.Queued, jobs.Done} {
		payload, err := jobs.EncodeRecord(jobs.Record{ID: 5, Kind: "shortcut", State: state, CreatedNs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutJob(5, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteGraph(fps[1]); err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.ParseGraph("torus:5x5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraphPayload(service.FingerprintGraph(g), EncodeGraphPayload(g)); err != nil {
		t.Fatal(err)
	}

	var got segmentGolden
	got.before = segHashes(t, dir)
	got.records = recordsHash(s.Records())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{NoSync: true, SegmentBytes: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	if replayed := recordsHash(s.Records()); replayed != got.records {
		t.Errorf("Records after reopen = %s, before %s", replayed, got.records)
	}
	if got.gc, err = s.GC(); err != nil {
		t.Fatal(err)
	}
	got.after = segHashes(t, dir)
	got.recordsAfterGC = recordsHash(s.Records())
	return got
}

// getShortcutAllocs bounds GetShortcut's allocations, each read at its
// reading plus one. A key-only read (decodeRecord) reads 4: the record
// (Result, Shortcut, tree header and partition), one []int (PartOf, the
// parts' nodes, every H_i's edges), one [][]int (Parts, then H) and
// Covered. A read with the request's partition (decodeShortcut) reads 4
// too: the record, H, Covered and the edge array, its part rank table on
// the stack. Both are constant in n and k, so the bounds hold for the
// grid:6x6 blobs:4 fixture and for grid:32x32 blobs:16, the store-mixed
// benchmark's shape. Race builds drop pooled scratch at random, so they
// get a looser bound.
const (
	getShortcutKeyOnlyAllocs = 5
	getShortcutGivenAllocs   = 5
	getShortcutAllocsRace    = 20
)

// TestStoreReadAllocs pins the read path's allocation counts on both
// backends: raw payload reads and existence checks allocate nothing (on
// the segment store, from a sealed, memory-mapped segment), and a decoded
// GetShortcut stays within getShortcutKeyOnlyAllocs or
// getShortcutGivenAllocs whatever the graph's size.
func TestStoreReadAllocs(t *testing.T) {
	type fixture struct {
		b     Backend
		key   service.Fingerprint
		fp    service.Fingerprint
		parts *partition.Partition
	}
	// segment persists spec's shortcut on partSpec, then one more graph,
	// one record per segment so that the shortcut's segment is sealed, and
	// reopens the directory so that segment is memory-mapped.
	segment := func(spec, partSpec string) func(*testing.T) fixture {
		return func(t *testing.T) fixture {
			dir := t.TempDir()
			w, err := Open(dir, Options{NoSync: true, SegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			g, p, res := buildFixture(t, spec, partSpec, 3)
			fp := service.FingerprintGraph(g)
			key := service.ShortcutKey(fp, p, shortcut.Options{})
			if err := w.PutGraph(fp, g); err != nil {
				t.Fatal(err)
			}
			if err := w.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			other, _, err := cli.ParseGraph("cycle:30", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.PutGraph(service.FingerprintGraph(other), other); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			st := s.OpenStats()
			if st.MappedSegments == 0 {
				t.Skip("no mmap on this platform")
			}
			for _, r := range s.Records() {
				if r.Key == key && r.Kind == "shortcut" && r.Segment >= st.Segments {
					t.Fatalf("fixture shortcut sits in segment %d of %d, want a sealed one", r.Segment, st.Segments)
				}
			}
			return fixture{s, key, fp, p}
		}
	}
	mem := func(t *testing.T) fixture {
		m := OpenMem()
		t.Cleanup(func() { m.Close() })
		g, p, res := buildFixture(t, "grid:6x6", "blobs:4", 3)
		fp := service.FingerprintGraph(g)
		if err := m.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		if err := m.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return fixture{m, key, fp, p}
	}
	for _, c := range []struct {
		name string
		open func(*testing.T) fixture
	}{
		{"segment", segment("grid:6x6", "blobs:4")},
		{"mem", mem},
		{"segment_grid32x32", segment("grid:32x32", "blobs:16")},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := c.open(t)
			g, ok, err := fx.b.GetGraph(fx.fp)
			if err != nil || !ok {
				t.Fatalf("GetGraph: ok=%v err=%v", ok, err)
			}
			zero := map[string]func(){
				"ShortcutPayload": func() { fx.b.ShortcutPayload(fx.key) },
				"GraphPayload":    func() { fx.b.GraphPayload(fx.fp) },
				"HasShortcut":     func() { fx.b.HasShortcut(fx.key) },
			}
			for name, fn := range zero {
				if n := testing.AllocsPerRun(100, fn); n != 0 {
					t.Errorf("%s: %.1f allocs/op, want 0", name, n)
				}
			}
			// With the request's partition, and key-only: the read then
			// decodes the record's own partition as well.
			for _, parts := range []*partition.Partition{fx.parts, nil} {
				bound := getShortcutGivenAllocs
				if parts == nil {
					bound = getShortcutKeyOnlyAllocs
				}
				if raceEnabled {
					bound = getShortcutAllocsRace
				}
				n := testing.AllocsPerRun(20, func() {
					if _, _, ok, err := fx.b.GetShortcut(fx.key, g, parts); err != nil || !ok {
						t.Fatalf("GetShortcut(key-only=%v): ok=%v err=%v", parts == nil, ok, err)
					}
				})
				if n > float64(bound) {
					t.Errorf("GetShortcut(key-only=%v): %.1f allocs/op, want <= %d", parts == nil, n, bound)
				}
				t.Logf("GetShortcut(key-only=%v): %.1f allocs/op", parts == nil, n)
			}
		})
	}
}

// encodeAllocs pins EncodeShortcutRecordPayload: the payload alone, the
// part rank table sitting on the stack up to 256 parts (allocated, it
// read 2). A payload that outgrows its size bound and regrows shows up
// here, and so would a copy of H sets the construction lists in order.
const encodeAllocs = 1

// TestEncodeAllocsFlatInParts pins the write path's encode: the payload
// is sized once and each part's IDs are written as the construction lists
// them, so encoding a record of 256 parts allocates exactly as often as one
// of 32.
func TestEncodeAllocsFlatInParts(t *testing.T) {
	var counts []float64
	for _, partSpec := range []string{"blobs:32", "blobs:256"} {
		g, p, res := buildFixture(t, "grid:64x64", partSpec, 1)
		fp := service.FingerprintGraph(g)
		n := testing.AllocsPerRun(20, func() {
			EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, res, time.Millisecond)
		})
		t.Logf("EncodeShortcutRecordPayload on grid:64x64 %s: %.0f allocs/op", partSpec, n)
		counts = append(counts, n)
	}
	// The race detector moves the stack rank table to the heap, so under
	// -race only the flatness holds.
	if counts[0] != counts[1] || (!raceEnabled && counts[1] > encodeAllocs) {
		t.Errorf("encode allocates %.0f objects for 32 parts and %.0f for 256, want equal and <= %d",
			counts[0], counts[1], encodeAllocs)
	}
}

// putShortcutAllocs pins PutShortcut of a new record and its new partition
// record on a segment store: both payloads are encoded into a pooled frame
// buffer that the log writes as it is, so a persist allocates nothing but
// the index's growth. With a payload each and a frame per record, and the
// rank table allocated, it read 5.
const putShortcutAllocs = 0

// TestPutShortcutAllocs puts 21 grid:16x16 blobs:8 records, each on a
// partition the store does not hold yet, and reads every one back. The
// race detector drops pooled buffers, so under -race the count is only
// logged.
func TestPutShortcutAllocs(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	t.Cleanup(func() { s.Close() })
	type put struct {
		key, fp service.Fingerprint
		g       *graph.Graph
		p       *partition.Partition
		res     *shortcut.Result
	}
	const runs = 20
	puts := make([]put, runs+1) // AllocsPerRun runs once more, unmeasured
	for i := range puts {
		g, p, res := buildFixture(t, "grid:16x16", "blobs:8", int64(i+1))
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		puts[i] = put{service.ShortcutKey(fp, p, shortcut.Options{}), fp, g, p, res}
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		r := puts[i]
		i++
		if err := s.PutShortcut(r.key, r.fp, r.p, shortcut.Options{}, r.res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PutShortcut of a new record on grid:16x16 blobs:8: %.0f allocs/op", n)
	if !raceEnabled && n > putShortcutAllocs {
		t.Errorf("PutShortcut allocates %.0f objects/op, want <= %d", n, putShortcutAllocs)
	}
	for _, r := range puts {
		got, _, ok, err := s.GetShortcut(r.key, r.g, nil)
		if err != nil || !ok {
			t.Fatalf("GetShortcut(%s): ok=%v err=%v", r.key, ok, err)
		}
		if !slices.EqualFunc(canonicalH(got.Shortcut), canonicalH(r.res.Shortcut), slices.Equal) {
			t.Errorf("record %s reads back other H sets", r.key)
		}
	}
}

// TestGetShortcutKeyOnly pins the key-only read, on both backends: with
// a nil partition GetShortcut decodes the record's own partition record,
// and the result is canonical-identical to the read given the request's
// partition, with the record's partition in canonical part order. A
// partition record that is missing, or whose bytes no longer hash to the
// fingerprint the shortcut names, fails the key-only read cleanly — an
// error, no result — while the partition-given read does not need it.
func TestGetShortcutKeyOnly(t *testing.T) {
	for _, c := range []struct {
		name string
		open func(t *testing.T) (Backend, *kvCore)
	}{
		{"segment", func(t *testing.T) (Backend, *kvCore) {
			s := mustOpen(t, t.TempDir())
			t.Cleanup(func() { s.Close() })
			return s, &s.kvCore
		}},
		{"mem", func(t *testing.T) (Backend, *kvCore) {
			m := OpenMem()
			t.Cleanup(func() { m.Close() })
			return m, &m.kvCore
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, core := c.open(t)
			g, p, res := buildFixture(t, "torus:7x7", "blobs:6", 2)
			fp := service.FingerprintGraph(g)
			pfp := service.FingerprintPartition(p)
			key := service.ShortcutKey(fp, p, shortcut.Options{})
			if err := b.PutGraph(fp, g); err != nil {
				t.Fatal(err)
			}
			if err := b.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			given, bt, ok, err := b.GetShortcut(key, g, p)
			if err != nil || !ok {
				t.Fatalf("GetShortcut(parts): ok=%v err=%v", ok, err)
			}
			own, bt2, ok, err := b.GetShortcut(key, g, nil)
			if err != nil || !ok {
				t.Fatalf("GetShortcut(key only): ok=%v err=%v", ok, err)
			}
			want, err := EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, given, bt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeShortcutRecordPayload(fp, own.Shortcut.Parts, shortcut.Options{}, own, bt2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("key-only read is not canonical-identical to the partition-given read")
			}
			op := own.Shortcut.Parts
			if service.FingerprintPartition(op) != pfp {
				t.Fatal("key-only read decoded a partition with another fingerprint")
			}
			next := 0
			for _, i := range op.PartOf {
				if i > next {
					t.Fatalf("record partition not in canonical part order: part %d before %d", i, next)
				}
				if i == next {
					next++
				}
			}

			// Tampered: the partition record's bytes no longer hash to pfp.
			bad := encodePartition(p)
			bad[len(bad)-1] ^= 1
			core.writeMu.Lock()
			err = core.putRecord(kindPartition, pfp, bad)
			core.writeMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if r, _, ok, err := b.GetShortcut(key, g, nil); err == nil || ok || r != nil {
				t.Fatalf("key-only read of a tampered partition record: ok=%v err=%v", ok, err)
			}
			if _, _, ok, err := b.GetShortcut(key, g, p); err != nil || !ok {
				t.Fatalf("partition-given read after tampering: ok=%v err=%v", ok, err)
			}

			// Missing: the partition record leaves the index.
			core.mu.Lock()
			core.removeLocked(indexKey{kind: kindPartition, key: pfp})
			core.mu.Unlock()
			if r, _, ok, err := b.GetShortcut(key, g, nil); err == nil || ok || r != nil {
				t.Fatalf("key-only read without a partition record: ok=%v err=%v", ok, err)
			}
			if _, _, ok, err := b.GetShortcut(key, g, p); err != nil || !ok {
				t.Fatalf("partition-given read without a partition record: ok=%v err=%v", ok, err)
			}
		})
	}
}
