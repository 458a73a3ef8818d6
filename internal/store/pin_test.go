package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"locshort/internal/cli"
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

// TestSegmentBytesGolden pins the exact on-disk bytes a fixed write
// sequence produces — graph puts, shortcut puts with their partitions, a
// superseded job, a tombstone, a verbatim graph payload, rotation across
// small segments, and a GC — together with the Records listing (record
// locations included) and the GCStats. A change that alters any of them
// would make existing data directories replay differently; the hashes were
// recorded before the record index and the segment log were separated, so
// this test is the proof that old directories still open unchanged.
func TestSegmentBytesGolden(t *testing.T) {
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
		bt := time.Duration(i+1) * time.Millisecond
		if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, bt); err != nil {
			t.Fatal(err)
		}
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

	wantBefore := map[string]string{
		"000001.seg": "dee643b7a8a42866",
		"000002.seg": "4770323bc1c89dc5",
		"000003.seg": "c7c81673ca13a3c4",
	}
	if got := segHashes(t, dir); !sameHashes(got, wantBefore) {
		t.Errorf("segment bytes before GC = %#v, want %#v", got, wantBefore)
	}
	const wantRecords = "12/bf703e9c7969e91e"
	if got := recordsHash(s.Records()); got != wantRecords {
		t.Errorf("Records before GC = %s, want %s", got, wantRecords)
	}
	// Replay must rebuild the identical index, locations included.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{NoSync: true, SegmentBytes: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	if got := recordsHash(s.Records()); got != wantRecords {
		t.Errorf("Records after reopen = %s, want %s", got, wantRecords)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	want := GCStats{LiveRecords: 11, LiveBytes: 6933, DroppedRecords: 1, ReclaimedBytes: 1310, Segments: 1}
	if st != want {
		t.Errorf("GCStats = %+v, want %+v", st, want)
	}
	wantAfter := map[string]string{"000004.seg": "c9f744106c7ed849"}
	if got := segHashes(t, dir); !sameHashes(got, wantAfter) {
		t.Errorf("segment bytes after GC = %#v, want %#v", got, wantAfter)
	}
	if got, want := recordsHash(s.Records()), "11/b2d03b199eac7f3b"; got != want {
		t.Errorf("Records after GC = %s, want %s", got, want)
	}
}

// getShortcutAllocs bounds GetShortcut's allocations — the decode of the
// stored H sets and tree into a fresh Result, with the permutation memo
// warm, and on a key-only read the decode of the record's partition too.
// The decode allocates a constant number of times, so one bound holds for
// the grid:6x6 blobs:4 fixture and for grid:32x32 blobs:16, the
// store-mixed benchmark's shape.
const getShortcutAllocs = 20

// TestStoreReadAllocs pins the read path's allocation counts on both
// backends: raw payload reads and existence checks allocate nothing (on
// the segment store, from a sealed, memory-mapped segment), and a decoded
// GetShortcut stays within getShortcutAllocs whatever the graph's size.
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
				n := testing.AllocsPerRun(20, func() {
					if _, _, ok, err := fx.b.GetShortcut(fx.key, g, parts); err != nil || !ok {
						t.Fatalf("GetShortcut(key-only=%v): ok=%v err=%v", parts == nil, ok, err)
					}
				})
				if n > getShortcutAllocs {
					t.Errorf("GetShortcut(key-only=%v): %.1f allocs/op, want <= %d", parts == nil, n, getShortcutAllocs)
				}
				t.Logf("GetShortcut(key-only=%v): %.1f allocs/op", parts == nil, n)
			}
		})
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
			want := EncodeShortcutRecordPayload(fp, p, shortcut.Options{}, given, bt)
			got := EncodeShortcutRecordPayload(fp, own.Shortcut.Parts, shortcut.Options{}, own, bt2)
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
			good, ok, err := b.GetPartition(pfp, g)
			if err != nil || !ok || service.FingerprintPartition(good) != pfp {
				t.Fatalf("GetPartition: ok=%v err=%v", ok, err)
			}
			bad := encodePartition(good)
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
