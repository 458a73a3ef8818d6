//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only and shared; size may
// run past the end of the file, whose later appends then show through the
// mapping. Shared, not private, so the mapping observes the file's bytes
// as they are on disk: the active segment's appends land in it, and
// Verify can still catch corruption a misbehaving external writer
// introduced after open.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size != int64(int(size)) {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
