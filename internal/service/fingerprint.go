package service

import (
	"fmt"
	"math"
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
// normalized weighted edges. It streams the words of the encoding, so a
// canonical graph hashes without allocating.
func FingerprintGraph(g *graph.Graph) Fingerprint {
	g = graph.Canonical(g)
	h := fnvWord(fnvOffset, uint64(g.NumNodes()))
	h = fnvWord(h, uint64(g.NumEdges()))
	for _, e := range g.EdgeSlice() {
		h = fnvWord(h, uint64(e.U))
		h = fnvWord(h, uint64(e.V))
		h = fnvWord(h, math.Float64bits(e.W))
	}
	return Fingerprint(h)
}

// hashPartition feeds p's canonical encoding (see FingerprintPartition)
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
// assignment: FNV-1a over its canonical encoding, the node count n, the
// part count k, then each node's label, all as big-endian uint64s. A
// node's label is the rank of its part by first appearance over nodes
// 0..n-1 (Partition.CanonicalRanks), or 2^64-1 for an uncovered node, so
// the encoding is invariant under part reordering. It is the partition
// counterpart of graph.AppendCanonical; the hash is streamed and the
// 16+8n bytes are never built.
func FingerprintPartition(p *partition.Partition) Fingerprint {
	return Fingerprint(hashPartition(fnvOffset, p))
}

// RecordHash streams a partition given by its node count n, its part
// count k and its labels into two FNV-1a states at once: the partition's
// fingerprint (FingerprintPartition) and the shortcut key of a graph, that
// partition and build options (ShortcutKey), which hashes the same words
// after the graph's. A stored partition record holds exactly those labels,
// so the store re-derives the record's fingerprint, and with it the key of
// the shortcut that names it, from the labels as it reads them, without a
// partition or the 16+8n-byte encoding: the labels are hashed once for
// both.
type RecordHash struct{ part, key uint64 }

// NewRecordHash starts both hashes for a partition of n nodes in k parts
// and the shortcut key over graph.
func NewRecordHash(graph Fingerprint, n, k int) RecordHash {
	h := RecordHash{part: fnvOffset, key: fnvWord(fnvOffset, uint64(graph))}
	h.Label(n)
	h.Label(k)
	return h
}

// Label feeds the next node's label into both hashes: its canonical part
// rank, or -1 for an uncovered node, called once for each node in
// ascending order.
func (h *RecordHash) Label(l int) {
	w := uint64(int64(l))
	p, k := h.part, h.key
	for shift := 56; shift >= 0; shift -= 8 {
		b := (w >> shift) & 0xff
		p = (p ^ b) * fnvPrime
		k = (k ^ b) * fnvPrime
	}
	h.part, h.key = p, k
}

// Partition returns the partition fingerprint of the labels fed so far.
func (h *RecordHash) Partition() Fingerprint { return Fingerprint(h.part) }

// Key returns the shortcut key over the graph, the labels fed so far and
// o.
func (h *RecordHash) Key(o shortcut.Options) Fingerprint { return Fingerprint(hashOptions(h.key, o)) }

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
// covers exactly the bytes of the big-endian graph fingerprint, p's
// canonical encoding (FingerprintPartition) and the options, in that
// order.
func ShortcutKey(g Fingerprint, p *partition.Partition, o shortcut.Options) Fingerprint {
	return Fingerprint(hashOptions(hashPartition(fnvWord(fnvOffset, uint64(g)), p), o))
}
