package store_test

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"

	"locshort/internal/store"
)

// errFS is a fault-injecting store.FS for crash-consistency and
// error-path testing. It delegates to the real filesystem but consults a
// hook before every operation that could mutate durable state, letting a
// test fail a specific fsync, tear a specific write short, fail a rename,
// or simulate a crash at the Nth mutation — after which every further
// mutation fails while reads keep working, so the test can observe the
// wreckage exactly as a post-crash reopen would find it.
//
// Injection is keyed by a deterministic operation counter: mutating
// operations are numbered 1, 2, 3, ... in the order the backend issues
// them, so "crash at op N" schedules are reproducible and a loop over N
// explores every crash point of a workload.

// errInjected is the error returned by injected faults (unless the hook
// supplies its own).
var errInjected = errors.New("errfs: injected fault")

// errCrashed is returned by every mutating operation after crash.
var errCrashed = errors.New("errfs: simulated crash")

// fsOp describes one counted (potentially mutating) filesystem operation.
type fsOp struct {
	// N is the 1-based sequence number of this operation.
	N int
	// Kind is one of "create", "open-rw", "write", "sync", "truncate",
	// "rename", "remove", "mkdir", "syncdir".
	Kind string
	// Path is the file the operation targets.
	Path string
}

// fsFault is a hook's verdict on one operation. The zero value lets the
// operation through.
type fsFault struct {
	// Err, when non-nil, is returned from the operation (which does not
	// run, except for the Partial prefix of a write).
	Err error
	// Partial, for "write" ops with Err set, writes this many bytes of the
	// payload through to the file before failing — a torn write.
	Partial int
}

// errFS implements store.FS over the real filesystem with fault injection.
// Safe for concurrent use.
type errFS struct {
	mu   sync.Mutex
	n    int
	hook func(fsOp) fsFault
	// crashed is atomic, not mu-guarded, so a hook (which runs under mu)
	// can call crash without deadlocking.
	crashed atomic.Bool
}

// newErrFS returns an errFS with no faults armed.
func newErrFS() *errFS { return &errFS{} }

// setHook installs the injection hook, called with every counted operation.
func (f *errFS) setHook(hook func(fsOp) fsFault) {
	f.mu.Lock()
	f.hook = hook
	f.mu.Unlock()
}

// failNextKind arms a fault against the next operation of the given kind.
func (f *errFS) failNextKind(kind string) {
	var once sync.Once
	f.setHook(func(op fsOp) fsFault {
		var fault fsFault
		if op.Kind == kind {
			once.Do(func() { fault = fsFault{Err: errInjected} })
		}
		return fault
	})
}

// crashAtOp arms a simulated crash: counted operation n fails and every
// mutating operation after it fails with errCrashed.
func (f *errFS) crashAtOp(n int) {
	f.setHook(func(op fsOp) fsFault {
		if op.N >= n {
			f.crash()
			return fsFault{Err: errCrashed}
		}
		return fsFault{}
	})
}

// crash makes every subsequent mutating operation fail with errCrashed.
// Reads keep working: data already on disk is exactly what a reopen will
// find. Safe to call from inside a hook.
func (f *errFS) crash() { f.crashed.Store(true) }

// ops returns how many counted operations have been issued.
func (f *errFS) ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// begin counts one operation and returns the armed fault, if any.
func (f *errFS) begin(kind, path string) fsFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed.Load() {
		return fsFault{Err: errCrashed}
	}
	f.n++
	if f.hook != nil {
		return f.hook(fsOp{N: f.n, Kind: kind, Path: path})
	}
	return fsFault{}
}

func (f *errFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		kind := "open-rw"
		if flag&os.O_CREATE != 0 {
			kind = "create"
		}
		if fault := f.begin(kind, name); fault.Err != nil {
			return nil, fault.Err
		}
	}
	osf, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errFile{f: osf, fs: f}, nil
}

func (f *errFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (f *errFS) Rename(oldpath, newpath string) error {
	if fault := f.begin("rename", newpath); fault.Err != nil {
		return fault.Err
	}
	return os.Rename(oldpath, newpath)
}

func (f *errFS) Remove(name string) error {
	if fault := f.begin("remove", name); fault.Err != nil {
		return fault.Err
	}
	return os.Remove(name)
}

func (f *errFS) MkdirAll(path string, perm os.FileMode) error {
	if fault := f.begin("mkdir", path); fault.Err != nil {
		return fault.Err
	}
	return os.MkdirAll(path, perm)
}

func (f *errFS) SyncDir(dir string) error {
	if fault := f.begin("syncdir", dir); fault.Err != nil {
		return fault.Err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// errFile wraps an *os.File, routing mutations through the parent's hook.
// Reads pass through uncounted (and survive a crash — the bytes are on
// disk). Because it is not an *os.File, the segment store keeps every
// segment on the pread path instead of mmapping it, so every read stays
// observable too.
type errFile struct {
	f  *os.File
	fs *errFS
}

func (w *errFile) Read(p []byte) (int, error)              { return w.f.Read(p) }
func (w *errFile) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }
func (w *errFile) Stat() (os.FileInfo, error)              { return w.f.Stat() }
func (w *errFile) Close() error                            { return w.f.Close() }

func (w *errFile) Write(p []byte) (int, error) {
	if fault := w.fs.begin("write", w.f.Name()); fault.Err != nil {
		n := 0
		if fault.Partial > 0 && fault.Partial < len(p) {
			n, _ = w.f.Write(p[:fault.Partial])
		}
		return n, fault.Err
	}
	return w.f.Write(p)
}

func (w *errFile) WriteAt(p []byte, off int64) (int, error) {
	if fault := w.fs.begin("write", w.f.Name()); fault.Err != nil {
		n := 0
		if fault.Partial > 0 && fault.Partial < len(p) {
			n, _ = w.f.WriteAt(p[:fault.Partial], off)
		}
		return n, fault.Err
	}
	return w.f.WriteAt(p, off)
}

func (w *errFile) Sync() error {
	if fault := w.fs.begin("sync", w.f.Name()); fault.Err != nil {
		return fault.Err
	}
	return w.f.Sync()
}

func (w *errFile) Truncate(size int64) error {
	if fault := w.fs.begin("truncate", w.f.Name()); fault.Err != nil {
		return fault.Err
	}
	return w.f.Truncate(size)
}

var _ store.FS = (*errFS)(nil)
