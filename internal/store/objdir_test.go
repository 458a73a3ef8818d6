package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"locshort/internal/service"
)

// testObjDir is a test-only third backend: the shared record index over an
// object-directory payload store, one file per live record, grouped into
// one directory per record kind:
//
//	<dir>/graphs/<%016x>.obj
//	<dir>/partitions/<%016x>.obj
//	<dir>/shortcuts/<%016x>.obj
//	<dir>/jobs/<%016x>.obj
//
// The conformance suite runs it (TestConformanceObjDir) to show that the
// Backend contract lives in kvCore and not in the segment log: a payload
// store whose delete unlinks several files, instead of appending one
// atomic tombstone frame, still passes every case, the crash-at-every-op
// sweep included. It is not a shipped backend.
type testObjDir struct {
	kvCore
	d *dirPayloads
}

var (
	_ Backend   = (*testObjDir)(nil)
	_ Compactor = (*testObjDir)(nil)
)

const (
	objSuffix    = ".obj"
	objTmpSuffix = ".tmp"
)

// objKindDirs maps record kind bytes to per-kind directory names.
var objKindDirs = map[byte]string{
	kindGraph:     "graphs",
	kindPartition: "partitions",
	kindShortcut:  "shortcuts",
	kindJob:       "jobs",
}

// objScanOrder lists kinds with graphs first so the orphan sweep can check
// shortcut dependencies against an already-populated graph index.
var objScanOrder = []byte{kindGraph, kindPartition, kindJob, kindShortcut}

// OpenTestObjDir opens (creating if needed) the test-only object-directory
// backend rooted at dir. It rebuilds the index by listing the kind
// directories, removes stranded temp files, and sweeps shortcut objects a
// crashed delete orphaned; swept objects count in OpenStats.CorruptSkipped.
func OpenTestObjDir(dir string, opts Options) (Backend, error) {
	opts = opts.withDefaults()
	o := &testObjDir{}
	o.d = &dirPayloads{dir: dir, fsys: opts.FS, noSync: opts.NoSync, c: &o.kvCore}
	o.init("objdir", o.d)
	for _, kind := range objScanOrder {
		if err := o.d.fsys.MkdirAll(filepath.Join(dir, objKindDirs[kind]), 0o755); err != nil {
			return nil, fmt.Errorf("store: objdir %s: %w", dir, err)
		}
		if err := o.scanKind(kind); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// scanKind indexes one kind directory, deleting temp files and shortcut
// objects that do not decode or whose graph object is gone. Open is
// single-threaded, so it installs entries without taking mu.
func (o *testObjDir) scanKind(kind byte) error {
	kdir := filepath.Join(o.d.dir, objKindDirs[kind])
	entries, err := o.d.fsys.ReadDir(kdir)
	if err != nil {
		return fmt.Errorf("store: objdir %s: %w", o.d.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, objTmpSuffix) {
			if err := o.d.fsys.Remove(filepath.Join(kdir, name)); err != nil {
				return fmt.Errorf("store: objdir %s: sweeping %s: %w", o.d.dir, name, err)
			}
			continue
		}
		key, ok := parseObjName(name)
		if !ok {
			continue // not ours; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("store: objdir %s: %w", o.d.dir, err)
		}
		meta := kvMeta{size: info.Size()}
		var payload []byte
		if kind == kindShortcut {
			if payload, err = o.d.read(indexKey{kind: kind, key: key}, meta); err != nil {
				return err
			}
			if sm, err := parseShortcutMeta(payload); err != nil || !o.has(kindGraph, sm.graphFP) {
				if err := o.d.fsys.Remove(filepath.Join(kdir, name)); err != nil {
					return fmt.Errorf("store: objdir %s: sweeping shortcut %s: %w", o.d.dir, name, err)
				}
				o.d.swept++
				continue
			}
		}
		o.applyLocked(kind, key, payload, meta)
	}
	return nil
}

// Dir returns the backend's root directory.
func (o *testObjDir) Dir() string { return o.d.dir }

// GC drops partitions no live shortcut references from the index, then
// removes every file in the kind directories that does not back a live
// record (those partitions, stranded temps, objects a crashed delete left).
func (o *testObjDir) GC() (GCStats, error) {
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	var st GCStats
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return st, o.errClosed()
	}
	keep, dropped := o.compactionSetLocked()
	o.reindexLocked(keep)
	o.mu.Unlock()
	st.LiveRecords, st.DroppedRecords = len(keep), dropped
	for _, e := range keep {
		st.LiveBytes += e.meta.size
	}
	for kind, kdir := range objKindDirs {
		entries, err := o.d.fsys.ReadDir(filepath.Join(o.d.dir, kdir))
		if err != nil {
			return st, fmt.Errorf("store: objdir %s: %w", o.d.dir, err)
		}
		for _, e := range entries {
			if key, ok := parseObjName(e.Name()); ok && o.has(kind, key) {
				continue
			}
			var size int64
			if info, err := e.Info(); err == nil {
				size = info.Size()
			}
			if err := o.d.fsys.Remove(filepath.Join(o.d.dir, kdir, e.Name())); err != nil {
				return st, fmt.Errorf("store: objdir %s: gc %s: %w", o.d.dir, e.Name(), err)
			}
			st.ReclaimedBytes += size
		}
	}
	return st, nil
}

// objName is the file name of the object holding key.
func objName(key service.Fingerprint) string {
	return fmt.Sprintf("%016x%s", uint64(key), objSuffix)
}

// parseObjName extracts the record key from an object file name.
func parseObjName(name string) (service.Fingerprint, bool) {
	var key uint64
	if _, err := fmt.Sscanf(name, "%016x.obj", &key); err != nil || objName(service.Fingerprint(key)) != name {
		return 0, false
	}
	return service.Fingerprint(key), true
}

// dirPayloads is testObjDir's payloadStore. A record is written through a
// same-directory temp file, fsync, and rename (then a directory fsync), so
// an object is always absent or complete. A graph delete unlinks the graph
// object first and syncs its directory — that is the durable delete — and
// then its dependent shortcut objects; a crash in between leaves orphans
// that Open sweeps.
type dirPayloads struct {
	dir    string
	fsys   FS
	noSync bool
	c      *kvCore // the owning index, for a deleted graph's dependents
	swept  int     // orphaned or undecodable shortcut objects Open removed
}

func (d *dirPayloads) path(kind byte, key service.Fingerprint) string {
	return filepath.Join(d.dir, objKindDirs[kind], objName(key))
}

func (d *dirPayloads) put(kind byte, key service.Fingerprint, payload []byte) (kvMeta, error) {
	if kind == kindTombstone {
		return kvMeta{}, d.deleteGraph(key)
	}
	path := d.path(kind, key)
	tmp := path + objTmpSuffix
	f, err := d.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return kvMeta{}, err
	}
	fail := func(err error) (kvMeta, error) {
		_ = f.Close() // best-effort: the original error must propagate
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if n, err := f.Write(payload); err != nil {
		return fail(err)
	} else if n != len(payload) {
		return fail(io.ErrShortWrite)
	}
	if !d.noSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if err := d.fsys.Rename(tmp, path); err != nil {
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if !d.noSync {
		if err := d.fsys.SyncDir(filepath.Dir(path)); err != nil {
			return kvMeta{}, err
		}
	}
	return kvMeta{size: int64(len(payload))}, nil
}

// deleteGraph durably removes the graph object for fp, then the objects of
// the shortcuts built on it. Once the graph object is gone the delete has
// happened: a shortcut object left behind is an orphan Open sweeps. The
// graph unlink and the index drop happen under one exclusive lock, so a
// reader never finds fp's records indexed after their files are gone.
func (d *dirPayloads) deleteGraph(fp service.Fingerprint) error {
	d.c.mu.Lock()
	deps := make([]service.Fingerprint, 0, len(d.c.byGraph[fp]))
	for key := range d.c.byGraph[fp] {
		deps = append(deps, key)
	}
	if err := d.fsys.Remove(d.path(kindGraph, fp)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.c.mu.Unlock()
		return err
	}
	if !d.noSync {
		if err := d.fsys.SyncDir(filepath.Join(d.dir, objKindDirs[kindGraph])); err != nil {
			d.c.mu.Unlock()
			return err
		}
	}
	d.c.dropGraphLocked(fp)
	d.c.mu.Unlock()
	for _, key := range deps {
		d.fsys.Remove(d.path(kindShortcut, key))
	}
	return nil
}

func (d *dirPayloads) read(ik indexKey, _ kvMeta) ([]byte, error) {
	f, err := d.fsys.OpenFile(d.path(ik.kind, ik.key), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return payload, err
}

func (d *dirPayloads) check(kvMeta) error { return nil }

func (d *dirPayloads) drop(indexKey) {}

func (d *dirPayloads) stats(st *OpenStats) {
	for _, meta := range d.c.index {
		st.Bytes += meta.size
	}
	st.CorruptSkipped = d.swept
}

func (d *dirPayloads) close() error { return nil }
