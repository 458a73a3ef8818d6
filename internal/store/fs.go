package store

import (
	"io"
	"os"
)

// FS is the filesystem surface the segment store performs every file
// operation through. The default implementation (osFS) delegates straight
// to package os; tests substitute errFS (errfs_test.go) to inject short
// writes, failed fsyncs, failed renames, and crash-at-Nth-op schedules
// without touching the store's logic — the fault-injection half of the
// conformance suite is built entirely on this seam.
//
// Implementations must be safe for concurrent use (the store calls them
// from multiple goroutines, serialized only by its write lock for
// mutating operations).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists the directory with os.ReadDir semantics.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes a file (os.Remove).
	Remove(name string) error
	// MkdirAll creates a directory tree (os.MkdirAll).
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so created/renamed entries are durable.
	// Platforms that cannot sync directories return nil; callers treat the
	// result as best-effort.
	SyncDir(dir string) error
}

// File is the per-file surface the segment store needs. *os.File implements it
// directly; when a segment file is an *os.File (the default FS) the store
// additionally memory-maps it — a wrapped File from an injected FS stays
// on the pread path, so every read remains visible to the fault injector.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// osFS is the production FS: package os, verbatim.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
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
