package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"locshort/internal/graph"
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
	return DecodeShortcutRequestInterned(b, nil)
}

// DecodeShortcutRequestInterned is DecodeShortcutRequest with the
// partition spec and options taken through strs, so a repeated request
// decodes without allocating a string. Nothing decoded aliases b: the
// strings are strs's heap copies or fresh ones, and the caller may
// recycle b. A nil strs copies every string.
//
//locshort:hotpath
func DecodeShortcutRequestInterned(b []byte, strs *Interner) (ShortcutRequest, error) {
	var r ShortcutRequest
	if len(b) < 1+8 || (b[0] != shortcutRequestV1 && b[0] != shortcutRequestV2) {
		return r, fmt.Errorf("wire: shortcut request: bad version or truncated") //locshort:alloc-ok reject path
	}
	version := b[0]
	r.Graph = service.Fingerprint(binary.BigEndian.Uint64(b[1:]))
	b = b[9:]
	var ok bool
	if r.Partition, b, ok = readLenString(b, strs); !ok {
		return r, fmt.Errorf("wire: shortcut request: truncated partition spec") //locshort:alloc-ok reject path
	}
	seed, used := binary.Varint(b)
	if used <= 0 {
		return r, fmt.Errorf("wire: shortcut request: truncated seed") //locshort:alloc-ok reject path
	}
	b = b[used:]
	r.Seed = seed
	if r.Options, b, ok = readLenString(b, strs); !ok {
		return r, fmt.Errorf("wire: shortcut request: truncated options") //locshort:alloc-ok reject path
	}
	if version == shortcutRequestV2 {
		if r.Parts, ok = readParts(b); !ok {
			return r, fmt.Errorf("wire: shortcut request: truncated, oversized or empty-part list") //locshort:alloc-ok reject path
		}
		return r, nil
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wire: shortcut request: %d trailing bytes", len(b)) //locshort:alloc-ok reject path
	}
	return r, nil
}

// readParts decodes a version-2 part list, which ends the frame: the
// parts (never nil) and whether the list was well-formed. A pre-pass
// validates the whole list before anything is allocated: at most
// graph.MaxNodes parts, none empty, at most graph.MaxNodes node IDs in
// all, and no byte after the last part. The parts then slice one array
// of IDs, so what a frame makes is bounded by MaxNodes, not by its
// length: a part header costs 24 bytes, and an empty part could cost as
// little as one byte of frame.
func readParts(b []byte) ([][]int, bool) {
	k, used := binary.Uvarint(b)
	if used <= 0 || k > graph.MaxNodes {
		return nil, false
	}
	b = b[used:]
	rest, total := b, uint64(0)
	for i := uint64(0); i < k; i++ {
		size, used := binary.Uvarint(rest)
		if used <= 0 || size == 0 || size > graph.MaxNodes-total {
			return nil, false
		}
		rest = rest[used:]
		total += size
		for j := uint64(0); j < size; j++ {
			v, used := binary.Uvarint(rest)
			if used <= 0 || v > math.MaxInt {
				return nil, false
			}
			rest = rest[used:]
		}
	}
	if len(rest) != 0 {
		return nil, false
	}
	parts, ids := make([][]int, k), make([]int, total)
	for i := range parts {
		size, used := binary.Uvarint(b)
		b = b[used:]
		part := ids[:size:size]
		ids = ids[size:]
		for j := range part {
			v, used := binary.Uvarint(b)
			part[j] = int(v)
			b = b[used:]
		}
		parts[i] = part
	}
	return parts, true
}

// readLenString decodes one uvarint-length-prefixed string field,
// returning the string (through strs: never a view of b, so the caller
// may recycle b), the remaining bytes, and whether the field was
// well-formed. A named function rather than a closure inside
// DecodeShortcutRequest: the closure captured b by reference and so
// allocated on every decode, on the warm serving path.
//
//locshort:hotpath
func readLenString(b []byte, strs *Interner) (string, []byte, bool) {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > maxRequestString || uint64(len(b)-used) < n {
		return "", b, false
	}
	return strs.String(b[used : used+int(n)]), b[used+int(n):], true
}

// Interner is a bounded intern table for the strings of shortcut
// requests, the partition spec and the options text, which repeat from
// request to request: it hands out the string it holds for equal bytes,
// so a repeat request decodes without allocating one. It holds ordinary
// heap strings, at most limit of them, each at most maxLen bytes; a
// string past either bound is copied fresh, as DecodeShortcutRequest
// copies it. Safe for concurrent use. A nil *Interner interns nothing.
type Interner struct {
	limit, maxLen int

	mu   sync.RWMutex
	strs map[string]string
}

// NewInterner returns an empty table of at most limit strings of at most
// maxLen bytes each.
func NewInterner(limit, maxLen int) *Interner {
	return &Interner{limit: limit, maxLen: maxLen, strs: make(map[string]string)}
}

// String returns b as a string: the table's copy when it holds one, else
// a fresh copy, which the table keeps while it has room.
//
//locshort:hotpath
func (t *Interner) String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil || len(b) > t.maxLen {
		return string(b)
	}
	t.mu.RLock()
	s, ok := t.strs[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	t.mu.Lock()
	if len(t.strs) < t.limit {
		t.strs[s] = s
	}
	t.mu.Unlock()
	return s
}
