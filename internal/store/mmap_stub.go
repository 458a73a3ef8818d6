//go:build !unix

package store

import (
	"errors"
	"os"
)

// errNoMmap keeps non-unix platforms on the portable pread path: mapSegment
// treats any mmapFile error as "stay unmapped", so the store works the same
// everywhere, just without the zero-copy read path.
var errNoMmap = errors.New("store: mmap unsupported on this platform")

func mmapFile(f *os.File, size int64) ([]byte, error) { return nil, errNoMmap }

func munmapFile(b []byte) error { return nil }
