package wire

import "io"

// DeclaredChunk is as much of a declared body length as ReadDeclared makes
// room for before any byte arrives.
const DeclaredChunk = 64 << 10

// ReadDeclared reads a body of exactly n bytes, the length its sender
// declared, into buf's backing array, growing it as needed. The declared
// length is the sender's word, so room is made as the bytes arrive: one
// exact io.ReadFull for a body that fits in buf or in DeclaredChunk, and
// otherwise reads that at most double what has arrived. A sender that
// declares 64 MiB and sends 8 bytes costs 64 KiB, not 64 MiB. The last
// read ends at the body's end, so nothing is left to drain; a body that
// ends early fails with io.ErrUnexpectedEOF and what arrived.
func ReadDeclared(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*len(buf), DeclaredChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
