package service

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// Fingerprint is a stable 64-bit content address: FNV-1a over a canonical
// byte encoding of the addressed object. Graphs, partitions, and build
// options each contribute a canonical encoding; a shortcut's fingerprint
// covers all three, so it identifies the inputs that determine the built
// shortcut.
//
// 64 bits of a non-cryptographic hash make accidental collisions
// negligible at realistic catalog sizes (birthday bound ~2^32) but offer
// no adversarial collision resistance: a client that can forge a
// colliding graph gets answers computed on the first-registered
// representative. Deployments serving untrusted tenants should isolate
// them per engine.
type Fingerprint uint64

// String renders the fingerprint as 16 lowercase hex digits, the wire form
// used by the locshortd API. It allocates the string and nothing else.
func (f Fingerprint) String() string {
	var b [16]byte
	return string(f.Append(b[:0]))
}

// Append appends String's 16 hex digits to b, so a caller rendering
// several values can build them into one buffer.
//
//locshort:hotpath
func (f Fingerprint) Append(b []byte) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[uint64(f)>>shift&0xf])
	}
	return b
}

// ParseFingerprint parses the 16-hex-digit wire form.
func ParseFingerprint(s string) (Fingerprint, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("service: fingerprint %q: want 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("service: fingerprint %q: %w", s, err)
	}
	return Fingerprint(v), nil
}

// FNV-1a, streamed: hashing a canonical encoding word by word produces
// the same 64 bits as hashing its bytes, without materializing them.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord feeds the 8 big-endian bytes of w into the FNV-1a state h.
func fnvWord(h, w uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (w >> shift) & 0xff
		h *= fnvPrime
	}
	return h
}

// fnvBytes feeds b into the FNV-1a state h.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// FingerprintBytes hashes an already-canonical byte encoding. It exists for
// layers that persist the canonical encodings themselves (internal/store)
// and need to re-derive the content address from the stored bytes without
// first decoding them into an object.
func FingerprintBytes(b []byte) Fingerprint { return Fingerprint(fnvBytes(fnvOffset, b)) }

// FingerprintGraph fingerprints a graph over its canonical encoding
// (graph.AppendCanonical): node count plus the sorted multiset of
// normalized weighted edges.
func FingerprintGraph(g *graph.Graph) Fingerprint {
	return FingerprintBytes(g.AppendCanonical(nil))
}

// AppendPartitionCanonical appends the canonical binary encoding of a
// partition to b: node count, part count, then the per-node part assignment
// with part labels canonicalized by first appearance over nodes 0..n-1
// (Partition.CanonicalRanks), so the encoding is invariant under part
// reordering and node-order permutations within a part. It is the
// partition counterpart of graph.AppendCanonical and doubles as the
// on-disk partition payload of internal/store. Fingerprints and shortcut
// keys hash the same bytes streamed (hashPartition) and never build them.
func AppendPartitionCanonical(b []byte, p *partition.Partition) []byte {
	var stack [128]int32
	rank := p.CanonicalRanks(stack[:])
	b = binary.BigEndian.AppendUint64(b, uint64(len(p.PartOf)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(rank)))
	for _, i := range p.PartOf {
		l := ^uint64(0) // uncovered
		if i >= 0 {
			l = uint64(rank[i])
		}
		b = binary.BigEndian.AppendUint64(b, l)
	}
	return b
}

// hashPartition feeds p's canonical encoding (AppendPartitionCanonical)
// into h without building it; the rank table lives on the stack for up
// to 128 parts.
func hashPartition(h uint64, p *partition.Partition) uint64 {
	var stack [128]int32
	return hashRanked(h, p, p.CanonicalRanks(stack[:]))
}

// hashRanked is hashPartition over p's rank table (p.CanonicalRanks).
func hashRanked(h uint64, p *partition.Partition, rank []int32) uint64 {
	h = fnvWord(h, uint64(len(p.PartOf)))
	h = fnvWord(h, uint64(len(rank)))
	for _, i := range p.PartOf {
		l := ^uint64(0) // uncovered
		if i >= 0 {
			l = uint64(rank[i])
		}
		h = fnvWord(h, l)
	}
	return h
}

// FingerprintPartition fingerprints a partition's canonical part
// assignment.
func FingerprintPartition(p *partition.Partition) Fingerprint {
	return Fingerprint(hashPartition(fnvOffset, p))
}

// FingerprintPartitionRanks is FingerprintPartition for a caller that
// already holds p's canonical ranks (p.CanonicalRanks), such as the
// store's shortcut encoder: past 128 parts it saves a second rank table.
func FingerprintPartitionRanks(p *partition.Partition, rank []int32) Fingerprint {
	return Fingerprint(hashRanked(fnvOffset, p, rank))
}

// hashOptions feeds the canonical encoding of the shortcut.Options fields
// that determine the built shortcut into h: Delta, MaxDelta,
// CongestionFactor, BlockFactor, and MaxIterations, each as a big-endian
// int64. The service never builds with Certify or a caller-supplied Tree,
// so those fields do not participate in content addressing.
func hashOptions(h uint64, o shortcut.Options) uint64 {
	for _, v := range [...]int{o.Delta, o.MaxDelta, o.CongestionFactor, o.BlockFactor, o.MaxIterations} {
		h = fnvWord(h, uint64(int64(v)))
	}
	return h
}

// ShortcutKey is the content address of a built shortcut: a hash over the
// graph fingerprint, the canonical partition assignment, and the canonical
// build options. Up to hash collisions (see Fingerprint), two requests
// share a key exactly when Build would produce the same shortcut. The
// hash is streamed over p's PartOf (no allocation up to 128 parts) and
// covers exactly the bytes of the big-endian graph fingerprint,
// AppendPartitionCanonical(p) and the options, in that order.
func ShortcutKey(g Fingerprint, p *partition.Partition, o shortcut.Options) Fingerprint {
	return Fingerprint(hashOptions(hashPartition(fnvWord(fnvOffset, uint64(g)), p), o))
}

// ShortcutKeyCanonical is ShortcutKey over a partition given as its
// canonical encoding (AppendPartitionCanonical, the body of a stored
// partition record) instead of as a decoded partition: the store
// re-derives a record's key from the payload bytes it already holds.
func ShortcutKeyCanonical(g Fingerprint, partCanon []byte, o shortcut.Options) Fingerprint {
	return Fingerprint(hashOptions(fnvBytes(fnvWord(fnvOffset, uint64(g)), partCanon), o))
}
