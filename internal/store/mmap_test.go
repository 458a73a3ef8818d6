package store

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"locshort/internal/cli"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// writeSegmentedFixture fills dir with enough records to seal several
// segments (tiny SegmentBytes forces rotation), so the mmap path — which
// only ever covers sealed segments — actually has segments to map. Returns
// the shortcut keys and graph fingerprints written.
func writeSegmentedFixture(t *testing.T, dir string) (keys, fps []service.Fingerprint, parts []*partition.Partition) {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, spec := range []string{"grid:6x6", "grid:5x8", "cycle:30", "wheel:25"} {
		g, p, res := buildFixture(t, spec, "blobs:4", 3)
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		key := service.ShortcutKey(fp, p, shortcut.Options{})
		if err := s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		fps = append(fps, fp)
		parts = append(parts, p)
	}
	if st := s.OpenStats(); st.Segments < 3 {
		t.Fatalf("fixture produced %d segments, want >= 3 so sealed segments exist", st.Segments)
	}
	return keys, fps, parts
}

// TestMmapReadAtEquivalence opens the same directory with and without mmap
// and asserts the two stores are observationally identical: same record
// index, byte-identical payloads, same decoded shortcuts, over the sealed
// segments and the reopened tail, which the mapped store maps as its
// active segment. This is the contract that lets -mmap=false exist as a
// pure fallback switch.
func TestMmapReadAtEquivalence(t *testing.T) {
	dir := t.TempDir()
	keys, fps, parts := writeSegmentedFixture(t, dir)

	mm, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	pr, err := Open(dir, Options{NoSync: true, NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	if got := mm.OpenStats().MappedSegments; got == 0 {
		t.Fatal("mmap store mapped no segments; equivalence test would compare pread to pread")
	}
	if got := pr.OpenStats().MappedSegments; got != 0 {
		t.Fatalf("NoMmap store mapped %d segments, want 0", got)
	}
	if mm.log.active.data == nil || recordAt(t, mm, "shortcut", keys[len(keys)-1]).Segment != mm.log.active.seq {
		t.Fatal("the newest shortcut does not sit in a mapped active segment; the equivalence would skip it")
	}

	ra, rb := mm.Records(), pr.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: mmap %d, pread %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: mmap %+v, pread %+v", i, ra[i], rb[i])
		}
	}
	for i, fp := range fps {
		pa, oka, erra := mm.GraphPayload(fp)
		pb, okb, errb := pr.GraphPayload(fp)
		if !oka || !okb || erra != nil || errb != nil {
			t.Fatalf("graph %d payload: mmap ok=%v err=%v, pread ok=%v err=%v", i, oka, erra, okb, errb)
		}
		if !bytes.Equal(pa, pb) {
			t.Errorf("graph %d payload bytes differ between mmap and pread", i)
		}
		sa, oka, erra := mm.ShortcutPayload(keys[i])
		sb, okb, errb := pr.ShortcutPayload(keys[i])
		if !oka || !okb || erra != nil || errb != nil {
			t.Fatalf("shortcut %d payload: mmap ok=%v err=%v, pread ok=%v err=%v", i, oka, erra, okb, errb)
		}
		if !bytes.Equal(sa, sb) {
			t.Errorf("shortcut %d payload bytes differ between mmap and pread", i)
		}

		ga, _, _ := mm.GetGraph(fp)
		gb, _, _ := pr.GetGraph(fp)
		resa, dura, oka2, erra2 := mm.GetShortcut(keys[i], ga, parts[i])
		resb, durb, okb2, errb2 := pr.GetShortcut(keys[i], gb, parts[i])
		if !oka2 || !okb2 || erra2 != nil || errb2 != nil {
			t.Fatalf("shortcut %d decode: mmap ok=%v err=%v, pread ok=%v err=%v", i, oka2, erra2, okb2, errb2)
		}
		if dura != durb {
			t.Errorf("shortcut %d build time differs: %v vs %v", i, dura, durb)
		}
		if !sameCanonicalH(canonicalH(resa.Shortcut), canonicalH(resb.Shortcut)) {
			t.Errorf("shortcut %d decoded H sets differ between mmap and pread", i)
		}
	}
}

// TestTornTailRepairWithMmap tears bytes off the active tail of a
// multi-segment store and reopens with mapping enabled: the sealed
// segments map and serve, the torn record is dropped, and the repaired
// store accepts appends.
func TestTornTailRepairWithMmap(t *testing.T) {
	dir := t.TempDir()
	keys, fps, _ := writeSegmentedFixture(t, dir)
	segs := segFiles(t, dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.OpenStats()
	if st.TruncatedBytes == 0 {
		t.Error("open repaired nothing, want a truncated tail")
	}
	if st.MappedSegments == 0 {
		t.Error("no segments mapped after repair")
	}
	// The last-written record died with the tail; everything in sealed
	// segments serves fine.
	if _, ok, err := s.GetGraph(fps[0]); !ok || err != nil {
		t.Errorf("sealed-segment graph lost: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.ShortcutPayload(keys[0]); !ok || err != nil {
		t.Errorf("sealed-segment shortcut payload lost: ok=%v err=%v", ok, err)
	}
	g, _, err := cli.ParseGraph("cycle:12", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraph(service.FingerprintGraph(g), g); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
}

// TestFlippedCRCSealedSegmentWithMmap corrupts a record checksum inside a
// segment that will be sealed and mapped, and asserts replay drops exactly
// that record while zero-copy reads of its mapped neighbors still work —
// the open-time CRC pass is what licenses skipping per-read checksums.
func TestFlippedCRCSealedSegmentWithMmap(t *testing.T) {
	dir := t.TempDir()
	keys, fps, _ := writeSegmentedFixture(t, dir)
	segs := segFiles(t, dir)
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a CRC byte of the first frame (header layout: kind byte, key,
	// length, CRC at offsets 13..16).
	data[len(segMagic)+14] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.OpenStats()
	if st.CorruptSkipped != 1 {
		t.Errorf("CorruptSkipped = %d, want 1", st.CorruptSkipped)
	}
	if st.MappedSegments == 0 {
		t.Error("corrupt sealed segment prevented mapping entirely")
	}
	// The first record written was fps[0]'s graph; it must be gone while
	// later records — including ones in the same mapped segment — serve.
	if _, ok, _ := s.GetGraph(fps[0]); ok {
		t.Error("checksum-corrupt record still live")
	}
	live := 0
	for i := 1; i < len(fps); i++ {
		if _, ok, err := s.GetGraph(fps[i]); ok && err == nil {
			live++
		}
	}
	if live != len(fps)-1 {
		t.Errorf("%d of %d later graphs live, want all", live, len(fps)-1)
	}
	for i := 1; i < len(keys); i++ {
		if _, ok, err := s.ShortcutPayload(keys[i]); !ok || err != nil {
			t.Errorf("shortcut %d payload: ok=%v err=%v", i, ok, err)
		}
	}
}

// SkipWithoutMmap skips a test on a platform where mmapFile cannot map a
// file. A test that needs a mapping calls it first, so a store that could
// map and did not fails instead of skipping.
func SkipWithoutMmap(t testing.TB) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := mmapFile(f, 1)
	if err != nil {
		t.Skip("no mmap on this platform")
	}
	munmapFile(data)
}

// inMapping reports whether b starts inside the mapping data: a zero-copy
// read, not a pread copy.
func inMapping(data, b []byte) bool {
	if len(data) == 0 || len(b) == 0 {
		return false
	}
	lo, p := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p < lo+uintptr(len(data))
}

// testJobPayload is a job record payload of 50 to 249 bytes derived from
// id, so a reader can check a record without sharing state with its writer.
func testJobPayload(id uint64) []byte {
	b := make([]byte, 50+id%200)
	for i := range b {
		b[i] = byte(id*31 + uint64(i))
	}
	return b
}

// flipByte XORs one byte of a segment file in place, through a handle of
// its own, as an external writer would.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// recordAt returns the listing entry of one live record.
func recordAt(t *testing.T, s *Store, kind string, key service.Fingerprint) RecordInfo {
	t.Helper()
	for _, r := range s.Records() {
		if r.Kind == kind && r.Key == key {
			return r
		}
	}
	t.Fatalf("no live %s record %s", kind, key)
	return RecordInfo{}
}

// TestActiveSegmentConcurrent races appends, reads of the newest records,
// rotation (4 KiB segments) and GC on one store: every record a reader
// asks for reads back byte for byte, though the newest ones come straight
// from the active segment's mapping while it grows. Afterwards every
// segment is mapped and the newest record reads zero-copy. CI runs it
// under -race -count=10.
func TestActiveSegmentConcurrent(t *testing.T) {
	SkipWithoutMmap(t)
	s, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writes = 600
	var newest atomic.Uint64
	errs := make(chan error, 8)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for id := uint64(1); id <= writes; id++ {
			if err := s.PutJob(id, testJobPayload(id)); err != nil {
				report(err)
				return
			}
			newest.Store(id)
		}
	}()
	gcs := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(); err != nil {
				report(err)
				return
			}
			gcs++
		}
	}()
	for r := uint64(0); r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := newest.Load()
				if id <= r {
					runtime.Gosched()
					continue
				}
				id -= r
				got, ok, err := s.GetJob(id)
				if err != nil || !ok || !bytes.Equal(got, testJobPayload(id)) {
					report(fmt.Errorf("job %d: ok=%v err=%v, %d bytes", id, ok, err, len(got)))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.OpenStats()
	t.Logf("%d segments, %d GCs", st.Segments, gcs)
	if st.MappedSegments != st.Segments {
		t.Errorf("%d of %d segments mapped, want all", st.MappedSegments, st.Segments)
	}
	for id := uint64(1); id <= writes; id++ {
		if got, ok, err := s.GetJob(id); err != nil || !ok || !bytes.Equal(got, testJobPayload(id)) {
			t.Fatalf("job %d: ok=%v err=%v", id, ok, err)
		}
	}
	got, _, _ := s.GetJob(writes)
	if rec := recordAt(t, s, "job", writes); rec.Segment == s.log.active.seq && !inMapping(s.log.active.data, got) {
		t.Error("the newest record of the active segment was not read from its mapping")
	}
}

// TestFramePastTheWindowReadByPread: the active segment's mapping covers
// max(size, SegmentBytes) bytes from when the segment became active, so
// the frame an append lays across the window's end is read by pread, a
// fresh buffer whose checksum is checked, before the segment rotates out
// and after. The frame before it reads from the mapping.
func TestFramePastTheWindowReadByPread(t *testing.T) {
	SkipWithoutMmap(t)
	const window = 4 << 10
	s, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: window})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{7}, 1000)
	var id uint64
	var rec RecordInfo
	for id = 1; rec.Offset+rec.Bytes <= window; id++ {
		if err := s.PutJob(id, payload); err != nil {
			t.Fatal(err)
		}
		rec = recordAt(t, s, "job", service.Fingerprint(id))
	}
	id--
	seg := s.log.segs[rec.Segment]
	if len(seg.data) != window || rec.Offset >= window {
		t.Fatalf("window %d bytes, frame at %d+%d; want a %d-byte window the frame crosses", len(seg.data), rec.Offset, rec.Bytes, window)
	}
	path := s.log.segPath(rec.Segment)
	for _, when := range []string{"active", "sealed"} {
		if when == "sealed" {
			if err := s.PutJob(id+1, payload); err != nil {
				t.Fatal(err)
			}
			if s.log.active == seg {
				t.Fatal("the append past the window did not rotate the segment")
			}
		}
		got, ok, err := s.GetJob(id)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: frame past the window: ok=%v err=%v", when, ok, err)
		}
		if inMapping(seg.data, got) {
			t.Errorf("%s: a frame past the window was read from the mapping", when)
		}
		if prev, _, _ := s.GetJob(id - 1); !inMapping(seg.data, prev) {
			t.Errorf("%s: the frame inside the window was not read from the mapping", when)
		}
		flipByte(t, path, rec.Offset+frameHdrSize+10)
		if _, _, err := s.GetJob(id); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("%s: read of a corrupted frame past the window: %v, want a checksum mismatch", when, err)
		}
		flipByte(t, path, rec.Offset+frameHdrSize+10)
	}
}

// TestActiveSegmentCorruptionFailsNextRead: a byte flipped in the active
// segment's file after its record was appended fails the next read of
// that record, though the read is zero-copy: the mapping shows the file's
// bytes, and a frame of the active segment has its checksum checked on
// every read. Restored, the record reads again.
func TestActiveSegmentCorruptionFailsNextRead(t *testing.T) {
	SkipWithoutMmap(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, _, _ := buildFixture(t, "grid:6x6", "blobs:4", 3)
	fp := service.FingerprintGraph(g)
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	payload, ok, err := s.GraphPayload(fp)
	if err != nil || !ok {
		t.Fatalf("GraphPayload: ok=%v err=%v", ok, err)
	}
	if !inMapping(s.log.active.data, payload) {
		t.Fatal("a record of the active segment was not read from its mapping")
	}
	rec := recordAt(t, s, "graph", fp)
	off := rec.Offset + frameHdrSize + int64(len(payload))/2
	flipByte(t, s.log.segPath(rec.Segment), off)
	if _, _, err := s.GetGraph(fp); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("GetGraph after a flipped byte: %v, want a checksum mismatch", err)
	}
	if _, _, err := s.GraphPayload(fp); err == nil {
		t.Error("GraphPayload served a corrupted record of the active segment")
	}
	if problems := s.Verify(); len(problems) != 1 {
		t.Errorf("verify = %v, want the one graph", problems)
	}
	flipByte(t, s.log.segPath(rec.Segment), off)
	if _, ok, err := s.GetGraph(fp); !ok || err != nil {
		t.Errorf("GetGraph once restored: ok=%v err=%v", ok, err)
	}
}

// TestMmapReadAtEquivalenceActive holds a mapped store to a NoMmap one
// while both take the same appends, rotations (2 KiB segments, so some
// frames cross a window's end) and a GC: after every step each live
// record lists at the same place and reads the same bytes from both,
// the newest ones straight from the mapped store's active segment.
func TestMmapReadAtEquivalenceActive(t *testing.T) {
	SkipWithoutMmap(t)
	mm, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	pr, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 2 << 10, NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	same := func(step string) {
		t.Helper()
		ra, rb := mm.Records(), pr.Records()
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d records mapped, %d by pread", step, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: record %d differs: mmap %+v, pread %+v", step, i, ra[i], rb[i])
			}
			if ra[i].Kind != "job" {
				continue
			}
			pa, oka, erra := mm.GetJob(uint64(ra[i].Key))
			pb, okb, errb := pr.GetJob(uint64(ra[i].Key))
			if !oka || !okb || erra != nil || errb != nil || !bytes.Equal(pa, pb) {
				t.Fatalf("%s: job %s: mmap ok=%v err=%v, pread ok=%v err=%v, equal %v",
					step, ra[i].Key, oka, erra, okb, errb, bytes.Equal(pa, pb))
			}
		}
		if st := pr.OpenStats(); st.MappedSegments != 0 {
			t.Fatalf("%s: NoMmap store maps %d segments", step, st.MappedSegments)
		}
		if st := mm.OpenStats(); st.MappedSegments != st.Segments {
			t.Fatalf("%s: %d of %d segments mapped, want all", step, st.MappedSegments, st.Segments)
		}
	}
	for id := uint64(1); id <= 40; id++ {
		for _, s := range []*Store{mm, pr} {
			if err := s.PutJob(id, testJobPayload(id)); err != nil {
				t.Fatal(err)
			}
		}
		same(fmt.Sprintf("append %d", id))
		if id == 20 {
			for _, s := range []*Store{mm, pr} {
				if _, err := s.GC(); err != nil {
					t.Fatal(err)
				}
			}
			same("GC")
		}
	}
	got, _, _ := mm.GetJob(40)
	if !inMapping(mm.log.active.data, got) {
		t.Error("the newest record was not read from the active segment's mapping")
	}
}
