package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"locshort/internal/service"
)

// ContentType is the media type of every binary request and response body.
const ContentType = "application/x-locshort"

// Response headers carrying the metadata a binary body omits. A binary
// shortcut response is the canonical shortcut record payload; key, graph,
// latency class, and build cost ride in these headers. A binary graph
// ingest acknowledges with the graph headers and an empty body.
const (
	// HeaderKey is the shortcut key (16 hex digits).
	HeaderKey = "X-Locshort-Key"
	// HeaderGraph is the graph fingerprint (16 hex digits).
	HeaderGraph = "X-Locshort-Graph"
	// HeaderSource is the latency class that served a shortcut response:
	// "cache", "store", "peer", or "built" (see the JSON field of the same
	// name), with a "forward:" prefix when another node executed it.
	HeaderSource = "X-Locshort-Source"
	// HeaderServedBy names the cluster node that executed the request.
	HeaderServedBy = "X-Locshort-Served-By"
	// HeaderBuildNs is the build cost in nanoseconds.
	HeaderBuildNs = "X-Locshort-Build-Ns"
	// HeaderNodes and HeaderEdges acknowledge a graph ingest's size.
	HeaderNodes = "X-Locshort-Nodes"
	HeaderEdges = "X-Locshort-Edges"
)

// IsBinary reports whether a Content-Type or Accept header value names the
// binary protocol. Parameters after ';' are ignored; the binary protocol
// has none, but a client that appends charset noise should still be
// understood.
//
//locshort:hotpath
func IsBinary(v string) bool {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.TrimSpace(v) == ContentType
}

// Versions of the binary shortcut request body: version 1 is the spec
// form, version 2 appends an explicit part list.
const (
	shortcutRequestV1 = 1
	shortcutRequestV2 = 2
)

// ShortcutRequest is the binary body of POST /v1/shortcuts, and the frame
// cluster nodes relay misdirected requests in. It carries a graph
// fingerprint and either a partition spec in the internal/cli language
// plus a seed, or an explicit part list, and the canonical options text.
// Async submission has no binary form; it uses the JSON body.
//
// Layout: version byte, big-endian uint64 graph fingerprint, uvarint
// partition-spec length + bytes, varint seed, uvarint options length +
// bytes. A request with Parts (even an empty list) is version 2 and
// continues with a uvarint part count, then per part a uvarint size and
// its uvarint node IDs, in the request's order; one without is version 1
// and ends there. No trailing bytes allowed.
type ShortcutRequest struct {
	Graph     service.Fingerprint
	Partition string
	Seed      int64
	Options   string
	// Parts is the explicit part list; nil in the spec form. A version-2
	// frame always decodes to a non-nil Parts.
	Parts [][]int
}

// maxRequestString bounds the spec and options strings read from a request
// body before allocation, far above any real spec.
const maxRequestString = 1 << 16

// AppendShortcutRequest renders r in binary form, appending to b.
//
//locshort:hotpath
func AppendShortcutRequest(b []byte, r ShortcutRequest) []byte {
	version := byte(shortcutRequestV1)
	if r.Parts != nil {
		version = shortcutRequestV2
	}
	b = append(b, version)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Graph))
	b = binary.AppendUvarint(b, uint64(len(r.Partition)))
	b = append(b, r.Partition...)
	b = binary.AppendVarint(b, r.Seed)
	b = binary.AppendUvarint(b, uint64(len(r.Options)))
	b = append(b, r.Options...)
	if r.Parts == nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(r.Parts)))
	for _, part := range r.Parts {
		b = binary.AppendUvarint(b, uint64(len(part)))
		for _, v := range part {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// DecodeShortcutRequest parses a binary shortcut request body of either
// version. The decoded strings and parts are copies; the caller may
// recycle b.
//
//locshort:hotpath
func DecodeShortcutRequest(b []byte) (ShortcutRequest, error) {
	var r ShortcutRequest
	if len(b) < 1+8 || (b[0] != shortcutRequestV1 && b[0] != shortcutRequestV2) {
		return r, fmt.Errorf("wire: shortcut request: bad version or truncated") //locshort:alloc-ok reject path
	}
	version := b[0]
	r.Graph = service.Fingerprint(binary.BigEndian.Uint64(b[1:]))
	b = b[9:]
	var ok bool
	if r.Partition, b, ok = readLenString(b); !ok {
		return r, fmt.Errorf("wire: shortcut request: truncated partition spec") //locshort:alloc-ok reject path
	}
	seed, used := binary.Varint(b)
	if used <= 0 {
		return r, fmt.Errorf("wire: shortcut request: truncated seed") //locshort:alloc-ok reject path
	}
	b = b[used:]
	r.Seed = seed
	if r.Options, b, ok = readLenString(b); !ok {
		return r, fmt.Errorf("wire: shortcut request: truncated options") //locshort:alloc-ok reject path
	}
	if version == shortcutRequestV2 {
		if r.Parts, b, ok = readParts(b); !ok {
			return r, fmt.Errorf("wire: shortcut request: truncated or oversized part list") //locshort:alloc-ok reject path
		}
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wire: shortcut request: %d trailing bytes", len(b)) //locshort:alloc-ok reject path
	}
	return r, nil
}

// readParts decodes a version-2 part list, returning the parts (never
// nil), the remaining bytes, and whether the list was well-formed. Every
// count is checked against the bytes left before anything is allocated:
// a part takes at least one byte (its size), a node ID at least one.
func readParts(b []byte) ([][]int, []byte, bool) {
	k, used := binary.Uvarint(b)
	if used <= 0 || k > uint64(len(b)-used) {
		return nil, b, false
	}
	b = b[used:]
	parts := make([][]int, k)
	for i := range parts {
		size, used := binary.Uvarint(b)
		if used <= 0 || size > uint64(len(b)-used) {
			return nil, b, false
		}
		b = b[used:]
		part := make([]int, size)
		for j := range part {
			v, used := binary.Uvarint(b)
			if used <= 0 || v > math.MaxInt {
				return nil, b, false
			}
			part[j] = int(v)
			b = b[used:]
		}
		parts[i] = part
	}
	return parts, b, true
}

// readLenString decodes one uvarint-length-prefixed string field,
// returning the string (a copy — the caller may recycle b), the remaining
// bytes, and whether the field was well-formed. A named function rather
// than a closure inside DecodeShortcutRequest: the closure captured b by
// reference and so allocated on every decode, on the warm serving path.
//
//locshort:hotpath
func readLenString(b []byte) (string, []byte, bool) {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > maxRequestString || uint64(len(b)-used) < n {
		return "", b, false
	}
	return string(b[used : used+int(n)]), b[used+int(n):], true
}
