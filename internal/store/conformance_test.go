package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locshort/internal/cli"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// The conformance suite is the executable form of the store.Backend
// contract. Both backends run the identical suite over the shared record
// index; the segment store adds the durability and fault-injection cases.

func openSegment(t testing.TB, dir string) store.Backend {
	t.Helper()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func segmentFactory() factory {
	return factory{
		Name:   "segment",
		New:    openSegment,
		Reopen: openSegment,
		NewFS: func(t testing.TB, dir string, fsys store.FS) (store.Backend, error) {
			return store.Open(dir, store.Options{FS: fsys})
		},
		Corrupt: corruptSegment,
		HasGC:   true,
	}
}

func TestConformanceSegment(t *testing.T) {
	runConformance(t, segmentFactory())
}

func TestConformanceMem(t *testing.T) {
	runConformance(t, factory{
		Name: "mem",
		New:  func(t testing.TB, dir string) store.Backend { return store.OpenMem() },
	})
}

func openObjDir(t testing.TB, dir string) store.Backend {
	t.Helper()
	o, err := store.OpenTestObjDir(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestConformanceObjDir runs the suite over the test-only object-directory
// payload store (objdir_test.go): the same index over a store whose delete
// unlinks several files rather than appending one tombstone frame.
func TestConformanceObjDir(t *testing.T) {
	runConformance(t, factory{
		Name:   "objdir",
		New:    openObjDir,
		Reopen: openObjDir,
		NewFS: func(t testing.TB, dir string, fsys store.FS) (store.Backend, error) {
			return store.OpenTestObjDir(dir, store.Options{FS: fsys})
		},
		Corrupt: corruptObjDir,
		HasGC:   true,
	})
}

// corruptObjDir flips the last byte of one stored graph object.
func corruptObjDir(t testing.TB, dir string) {
	t.Helper()
	gdir := filepath.Join(dir, "graphs")
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".obj") {
			continue
		}
		path := filepath.Join(gdir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no graph object to corrupt")
}

// corruptSegment flips a payload byte near the tail of the first segment
// file.
func corruptSegment(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 64 {
			continue
		}
		data[len(data)-3] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no segment file to corrupt")
}

// TestSegmentRotationFaultRecovery is the regression test for a real bug
// the fault suite shook out: startSegment created the next segment file
// with O_EXCL, and a failure after creation (header write or fsync) left
// the file behind, so every rotation retry hit EEXIST and the store was
// permanently wedged after one transient fault. The fix removes the file
// on the failure path; this test drives a rotation into an injected write
// fault and asserts the store recovers once the fault clears.
func TestSegmentRotationFaultRecovery(t *testing.T) {
	dir := t.TempDir()
	efs := newErrFS()
	s, err := store.Open(dir, store.Options{FS: efs, NoSync: true, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fail every write that lands in segment 2 while armed: the rotation's
	// header write dies after the O_EXCL create succeeded.
	armed := true
	efs.setHook(func(op fsOp) fsFault {
		if armed && op.Kind == "write" && strings.HasSuffix(op.Path, "000002.seg") {
			return fsFault{Err: errInjected}
		}
		return fsFault{}
	})

	specs := []string{"grid:6x7", "torus:5x5", "ktree:60,3", "random:50,120", "grid:7x7", "torus:6x6"}
	var rotationFault bool
	for i, spec := range specs {
		g, _, err := cli.ParseGraph(spec, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutGraph(service.FingerprintGraph(g), g); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("unexpected error flavor: %v", err)
			}
			rotationFault = true
			break
		}
	}
	if !rotationFault {
		t.Fatal("workload never triggered a rotation; shrink SegmentBytes")
	}

	// Fault clears; the very next put must rotate cleanly (before the fix:
	// EEXIST forever).
	armed = false
	g, _, err := cli.ParseGraph("wheel:40", 1)
	if err != nil {
		t.Fatal(err)
	}
	fp := service.FingerprintGraph(g)
	if err := s.PutGraph(fp, g); err != nil {
		t.Fatalf("rotation still wedged after fault cleared: %v", err)
	}
	if _, ok, err := s.GetGraph(fp); err != nil || !ok {
		t.Fatalf("GetGraph after recovered rotation: ok=%v err=%v", ok, err)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("Verify after recovery: %v", problems[0])
	}
}

// TestSegmentGCCrashTmpSweep is the regression test for the second bug the
// fault suite shook out: a GC that crashed before its rename left
// gc.seg.tmp on disk forever (replay ignores the name, and nothing ever
// deleted it). Open now sweeps it. The test crashes a GC at its rename,
// checks the tmp file survived the crash, and asserts a reopen removes it
// with all records intact.
func TestSegmentGCCrashTmpSweep(t *testing.T) {
	dir := t.TempDir()
	efs := newErrFS()
	s, err := store.Open(dir, store.Options{FS: efs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	var fps []service.Fingerprint
	for i, spec := range []string{"grid:6x6", "torus:4x4", "wheel:30"} {
		g, _, err := cli.ParseGraph(spec, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		fp := service.FingerprintGraph(g)
		if err := s.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if err := s.DeleteGraph(fps[0]); err != nil {
		t.Fatal(err)
	}

	// Crash the process (as far as the FS is concerned) at the GC's
	// rename: the compacted tmp segment is fully written but never
	// renamed, and the in-process cleanup can no longer run.
	efs.setHook(func(op fsOp) fsFault {
		if op.Kind == "rename" {
			efs.crash()
			return fsFault{Err: errCrashed}
		}
		return fsFault{}
	})
	if _, err := s.GC(); err == nil {
		t.Fatal("GC succeeded through a crashed rename")
	}
	s.Close() // errors expected; the FS is dead

	tmpPath := filepath.Join(dir, "gc.seg.tmp")
	if _, err := os.Stat(tmpPath); err != nil {
		t.Fatalf("crashed GC should have left %s behind: %v", tmpPath, err)
	}

	s2 := openSegment(t, dir)
	defer s2.Close()
	if _, err := os.Stat(tmpPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("reopen did not sweep %s (stat err=%v)", tmpPath, err)
	}
	for _, fp := range fps[1:] {
		if _, ok, err := s2.GetGraph(fp); err != nil || !ok {
			t.Fatalf("record lost across crashed GC: ok=%v err=%v", ok, err)
		}
	}
	if _, ok, _ := s2.GetGraph(fps[0]); ok {
		t.Fatal("deleted graph resurrected by crashed GC")
	}
	if problems := s2.Verify(); len(problems) != 0 {
		t.Fatalf("Verify after crashed GC: %v", problems[0])
	}
}

// FuzzOpen opens a store directory whose single segment is attacker- (or
// bit-rot-) controlled bytes and asserts the invariants replay promises:
// no panic, and no graph served whose content does not hash back to its
// key. Seeds are a real segment from a populated store plus truncations.
func FuzzOpen(f *testing.F) {
	seedDir := f.TempDir()
	s, err := store.Open(seedDir, store.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	g, _, err := cli.ParseGraph("grid:5x5", 1)
	if err != nil {
		f.Fatal(err)
	}
	parts, err := cli.ParsePartition(g, "blobs:3", 1)
	if err != nil {
		f.Fatal(err)
	}
	res, err := shortcut.Build(g, parts, shortcut.Options{})
	if err != nil {
		f.Fatal(err)
	}
	gfp := service.FingerprintGraph(g)
	if err := s.PutGraph(gfp, g); err != nil {
		f.Fatal(err)
	}
	key := service.ShortcutKey(gfp, parts, shortcut.Options{})
	if err := s.PutShortcut(key, gfp, parts, shortcut.Options{}, res, 0); err != nil {
		f.Fatal(err)
	}
	if err := s.PutJob(3, []byte{1, '{', '}'}); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, "000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})
	f.Add([]byte("LSSTOR01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		defer s.Close()
		for _, r := range s.Records() {
			if r.Kind != "graph" {
				continue
			}
			g, ok, err := s.GetGraph(r.Key)
			if err != nil || !ok {
				continue // an error (or a raced miss) is an acceptable answer
			}
			if got := service.FingerprintGraph(g); got != r.Key {
				t.Fatalf("replay admitted graph %s whose content hashes to %s", r.Key, got)
			}
		}
		s.Verify() // must not panic, whatever replay admitted
	})
}
