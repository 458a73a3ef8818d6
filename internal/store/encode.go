package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// Payload encodings. Every payload starts with a one-byte version so the
// format can evolve record kind by record kind; decoders reject unknown
// versions instead of misreading them.
//
// The store is self-verifying: every payload re-derives its record key
// without side information, so `locshortctl verify` can prove
// content-addressing integrity. A graph payload is exactly the canonical
// encoding its fingerprint hashes (graph.AppendCanonical): FNV-1a over the
// body is the key. A partition payload holds the labels of the canonical
// partition encoding (service.FingerprintPartition) as varints: its key is
// FNV-1a over the 16+8n-byte canonical expansion of those labels, streamed
// (service.RecordHash) and never built. A shortcut payload names its
// graph and partition and re-derives its key from them and its options.
//
// Shortcut payloads hold edge IDs, and an edge ID is an index into the
// canonical graph encoding: every graph a shortcut is encoded over or
// decoded against is in canonical form (graph.IsCanonical), which is the
// form every engine representative has (spec, JSON or binary ingest, peer
// push, warm start alike), so live IDs are canonical IDs and move
// untranslated. appendShortcut refuses a graph that is not canonical. The
// restriction tree of every H_i is the graph's own BFS tree
// ((*graph.Graph).BFSTree), which the graph alone determines, so a payload
// stores neither the tree nor its depth: a read hands out the graph's
// memoized tree.
//
// Version 2 of the partition and shortcut payloads is the only one
// written. Version 1, which earlier releases wrote, is still read, so old
// data directories and peers that have not been upgraded keep working: a
// version 1 partition payload is the 16+8n-byte canonical encoding itself,
// and a version 1 shortcut payload also stores the tree and its depth,
// which must be the graph's.
const (
	graphPayloadVersion     = 1
	partitionPayloadVersion = 2
	shortcutPayloadVersion  = 2

	partitionPayloadV1 = 1
	shortcutPayloadV1  = 1
)

// maxStoredGraphNodes bounds the node count of a graph record read back
// from the store's own files. It is looser than graph.MaxNodes, which
// bounds payloads that arrive from the network, because earlier releases
// registered specs without a size limit: a data directory they wrote may
// hold a graph over graph.MaxNodes, and such a directory must still warm
// start. The bound keeps a corrupt header from sizing an unbounded
// allocation.
const maxStoredGraphNodes = 1 << 26

// rankStack is a part rank table on the stack: room for partRanks' two
// entries per part up to 256 parts, so reads and writes of records that
// size allocate no rank table.
type rankStack [512]int32

// partRanks returns each part's canonical rank — the order of first
// appearance over nodes 0..n-1, i.e. the part order of the canonical
// partition encoding (Partition.CanonicalRanks) — and the inverse map
// byRank from rank to part index, both in one array: buf when it has room
// for 2k entries. Every partition instance with the same fingerprint
// shares these ranks even when its Parts slice is ordered differently
// (BFSBlobs orders by seed, FromLabels by first appearance), so shortcut
// payloads index their per-part data by rank, never by instance order.
func partRanks(p *partition.Partition, buf []int32) (rank, byRank []int32) {
	k := p.NumParts()
	if cap(buf) < 2*k {
		buf = make([]int32, 2*k)
	}
	rank, byRank = p.CanonicalRanks(buf[:k:k]), buf[k:2*k]
	for i, r := range rank {
		byRank[r] = int32(i)
	}
	return rank, byRank
}

// encodeGraph renders the graph payload: version byte + canonical encoding.
func encodeGraph(g *graph.Graph) []byte {
	return appendGraph(make([]byte, 0, graphPayloadLen(g)), g)
}

// graphPayloadLen is the length of g's graph payload.
func graphPayloadLen(g *graph.Graph) int { return 1 + 16 + 24*g.NumEdges() }

// appendGraph appends the graph payload to b.
func appendGraph(b []byte, g *graph.Graph) []byte {
	return g.AppendCanonical(append(b, graphPayloadVersion))
}

// decodeGraph reconstructs a graph from its payload and verifies that the
// content fingerprint of the payload matches key. The header's node and
// edge counts size graph.New and the edge loop, so they are bounded first,
// before the hash and the length check: a payload from the network
// (network true) is held to graph.CheckSize, and the store's own records to
// maxStoredGraphNodes nodes, with no edge bound, so a data directory an
// earlier release wrote still warm starts. Refusals wrap graph.ErrTooLarge.
// The decoded graph is in canonical form (graph.IsCanonical).
//
// A −0 weight compares equal to +0 but encodes differently, so one graph
// would have two content addresses: a network payload carrying one is
// refused, like NaN. Earlier releases could store one; such a record still
// decodes, with the weight stored as +0, which keeps the decoded graph
// canonical.
func decodeGraph(payload []byte, key service.Fingerprint, network bool) (*graph.Graph, error) {
	if len(payload) < 1 || payload[0] != graphPayloadVersion {
		return nil, fmt.Errorf("store: graph %s: bad payload version", key)
	}
	body := payload[1:]
	if len(body) < 16 {
		return nil, fmt.Errorf("store: graph %s: short payload", key)
	}
	n := binary.BigEndian.Uint64(body)
	m := binary.BigEndian.Uint64(body[8:])
	if network {
		// Counts past MaxInt32 are over either limit; capping them keeps
		// the conversion to int from wrapping.
		if err := graph.CheckSize(int(min(n, math.MaxInt32)), int(min(m, math.MaxInt32))); err != nil {
			return nil, fmt.Errorf("store: graph %s: %w", key, err)
		}
	} else if n > maxStoredGraphNodes {
		return nil, fmt.Errorf("store: graph %s: %w: %d nodes, limit %d", key, graph.ErrTooLarge, n, maxStoredGraphNodes)
	}
	if got := service.FingerprintBytes(body); got != key {
		return nil, fmt.Errorf("store: graph %s: content hashes to %s", key, got)
	}
	// Divide rather than multiply: 16+24*m wraps for m near 2^64, and a
	// wrapped product could match the length of a short payload.
	if edgeBytes := uint64(len(body)) - 16; edgeBytes%24 != 0 || m != edgeBytes/24 {
		return nil, fmt.Errorf("store: graph %s: payload length %d for %d edges", key, len(body), m)
	}
	g := graph.New(int(n))
	g.Grow(int(m))
	off := 16
	var pu, pv uint64
	var pw float64
	for i := uint64(0); i < m; i++ {
		u := binary.BigEndian.Uint64(body[off:])
		v := binary.BigEndian.Uint64(body[off+8:])
		w := math.Float64frombits(binary.BigEndian.Uint64(body[off+16:]))
		off += 24
		if u >= v || v >= n {
			// u >= v also rejects self-loops; canonical edges are
			// normalized to u < v before sorting.
			return nil, fmt.Errorf("store: graph %s: edge %d endpoints {%d,%d} invalid for %d nodes",
				key, i, u, v, n)
		}
		if math.IsNaN(w) {
			return nil, fmt.Errorf("store: graph %s: edge %d has NaN weight", key, i)
		}
		if w == 0 && math.Signbit(w) {
			if network {
				return nil, fmt.Errorf("store: graph %s: edge %d has weight -0", key, i)
			}
			w = 0
		}
		// The payload must be the canonical encoding — nondecreasing in
		// (u, v, w) — or its fingerprint is not the graph's true content
		// address and the same graph could register under two identities.
		// The binary ingest path feeds this decoder raw network bytes, so
		// this is enforced here, not assumed.
		if i > 0 && (u < pu || (u == pu && (v < pv || (v == pv && w < pw)))) {
			return nil, fmt.Errorf("store: graph %s: edge %d out of canonical order", key, i)
		}
		pu, pv, pw = u, v, w
		g.AddWeightedEdge(int(u), int(v), w)
	}
	return g, nil
}

// appendPartition appends the partition payload to b: the version byte,
// uvarint n, uvarint k, then one uvarint per node, its canonical label
// (the rank of its part by first appearance, Partition.CanonicalRanks)
// plus one, or 0 for an uncovered node. b grows at most once, to the
// payload's size bound.
func appendPartition(b []byte, p *partition.Partition) []byte {
	var stack rankStack
	rank := p.CanonicalRanks(stack[:])
	n, k := uint64(len(p.PartOf)), uint64(len(rank))
	b = slices.Grow(b, 1+uvarintLen(n)+uvarintLen(k)+int(n)*uvarintLen(k))
	b = append(b, partitionPayloadVersion)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, k)
	for _, i := range p.PartOf {
		var l uint64 // uncovered
		if i >= 0 {
			l = uint64(rank[i]) + 1
		}
		b = binary.AppendUvarint(b, l)
	}
	return b
}

// partitionLabels is a partition payload's header and the labels that
// follow it, not yet read: uvarints on version 2, big-endian words on
// version 1.
type partitionLabels struct {
	n, k int
	v1   bool
	b    []byte
}

// parsePartition reads a partition payload's header, of either version.
// n is held to the bytes that follow — every version 2 label takes at
// least one byte, and a version 1 body is exactly 16+8n bytes — and k to
// n, before anything is sized by either.
func parsePartition(payload []byte) (partitionLabels, error) {
	if len(payload) > 0 && payload[0] == partitionPayloadV1 {
		return parsePartitionV1(payload[1:])
	}
	if len(payload) < 1 || payload[0] != partitionPayloadVersion {
		return partitionLabels{}, errors.New("bad payload version")
	}
	b := payload[1:]
	n, used := shortestUvarint(b)
	if used <= 0 {
		return partitionLabels{}, errors.New("truncated or overlong node count")
	}
	b = b[used:]
	k, used := shortestUvarint(b)
	if used <= 0 {
		return partitionLabels{}, errors.New("truncated or overlong part count")
	}
	b = b[used:]
	switch {
	case n > uint64(len(b)):
		return partitionLabels{}, fmt.Errorf("%d nodes in %d label bytes", n, len(b))
	case k > n:
		return partitionLabels{}, fmt.Errorf("%d parts for %d nodes", k, n)
	}
	return partitionLabels{n: int(n), k: int(k), b: b}, nil
}

// parsePartitionV1 is parsePartition for a version 1 body, the canonical
// encoding itself: n, k, then n labels, all big-endian words.
func parsePartitionV1(body []byte) (partitionLabels, error) {
	if len(body) < 16 {
		return partitionLabels{}, errors.New("short payload")
	}
	n := binary.BigEndian.Uint64(body)
	k := binary.BigEndian.Uint64(body[8:])
	if labels := uint64(len(body) - 16); labels%8 != 0 || n != labels/8 {
		return partitionLabels{}, fmt.Errorf("payload length %d for %d nodes", len(body), n)
	}
	if k > n {
		return partitionLabels{}, fmt.Errorf("%d parts for %d nodes", k, n)
	}
	return partitionLabels{n: int(n), k: int(k), v1: true, b: body[16:]}, nil
}

// next reads node v's label off the front of the labels: its part rank,
// or -1 for an uncovered node. A label must be below k and, on version 2,
// in its shortest varint form, so a partition has exactly one payload of
// each version. The header's length check guarantees a version 1 label
// its eight bytes.
func (l *partitionLabels) next(v int) (int, error) {
	if l.v1 {
		x := binary.BigEndian.Uint64(l.b)
		l.b = l.b[8:]
		switch {
		case x == ^uint64(0):
			return -1, nil
		case x >= uint64(l.k):
			return 0, fmt.Errorf("node %d label %d out of range [0,%d)", v, x, l.k)
		}
		return int(x), nil
	}
	x, used := shortestUvarint(l.b)
	switch {
	case used <= 0:
		return 0, fmt.Errorf("node %d: truncated or overlong label", v)
	case x > uint64(l.k):
		return 0, fmt.Errorf("node %d label %d out of range [0,%d)", v, x-1, l.k)
	}
	l.b = l.b[used:]
	return int(x) - 1, nil
}

// end fails when bytes are left after the last label.
func (l *partitionLabels) end() error {
	if len(l.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(l.b))
	}
	return nil
}

// shortestUvarint is binary.Uvarint, but a value not in its shortest form
// is refused like a truncated one (used 0).
func shortestUvarint(b []byte) (uint64, int) {
	x, used := binary.Uvarint(b)
	if used > 0 && used != uvarintLen(x) {
		return 0, 0
	}
	return x, used
}

// partitionKey re-derives a partition payload's fingerprint without its
// graph, for Verify. A version 2 payload's labels are checked as the
// key-only read (decodeRecord) checks them and streamed through the hash
// of their canonical expansion (service.RecordHash), which is never built;
// a version 1 body is that expansion, and is hashed as it is.
func partitionKey(payload []byte) (service.Fingerprint, error) {
	if len(payload) > 0 && payload[0] == partitionPayloadV1 {
		return service.FingerprintBytes(payload[1:]), nil
	}
	lab, err := parsePartition(payload)
	if err != nil {
		return 0, err
	}
	h := service.NewRecordHash(0, lab.n, lab.k)
	for v := range lab.n {
		l, err := lab.next(v)
		if err != nil {
			return 0, err
		}
		h.Label(l)
	}
	return h.Partition(), lab.end()
}

// shortcutMeta is the decoded fixed-size head of a shortcut payload, enough
// to know which graph and partition records the shortcut depends on without
// materializing the shortcut itself (the segment replay parses exactly this
// much to index records).
type shortcutMeta struct {
	graphFP service.Fingerprint
	partFP  service.Fingerprint
}

// parseShortcutMeta reads the dependency head of a shortcut payload, which
// both versions share.
func parseShortcutMeta(payload []byte) (shortcutMeta, error) {
	if len(payload) < 17 || (payload[0] != shortcutPayloadVersion && payload[0] != shortcutPayloadV1) {
		return shortcutMeta{}, fmt.Errorf("store: shortcut payload: bad version or truncated head")
	}
	return shortcutMeta{
		graphFP: service.Fingerprint(binary.BigEndian.Uint64(payload[1:])),
		partFP:  service.Fingerprint(binary.BigEndian.Uint64(payload[9:])),
	}, nil
}

// errNotCanonical refuses a shortcut over a graph that is not in canonical
// form: its edge IDs are not the payload's.
var errNotCanonical = errors.New("graph is not in canonical form (graph.Canonical)")

// errTreeNotCanonical refuses a shortcut whose restriction tree is not the
// graph's BFS tree: a result built on another tree or on none, which a
// payload without a tree would read back on the wrong one; or a version 1
// record whose stored tree or depth is not the graph's, written against
// another edge order by a release that kept a non-canonical
// representative, or forged.
var errTreeNotCanonical = errors.New("tree is not the graph's canonical BFS tree")

// appendShortcut appends a shortcut payload to b and returns it with the
// fingerprint of the partition it names, that of res.Shortcut.Parts. The
// shortcut's graph must be canonical (errNotCanonical otherwise), so its
// edge IDs are written as they are, and its tree must be the graph's BFS
// tree — the same root and the same parent edge at every node — which a
// read takes from the graph (errTreeNotCanonical otherwise).
// Layout after the version byte and the two big-endian dependency
// fingerprints (graph, partition):
//
//	varint x5   build options (delta, maxdelta, cf, bf, iters)
//	varint x4   result metadata (delta', congestion threshold, block
//	            budget, iterations); the tree depth is the graph's
//	varint      build cost in nanoseconds
//	uvarint     part count k
//	k bits      coverage bitmap, little-endian within bytes, indexed by
//	            canonical part rank (see partRanks)
//	[per covered part, in canonical rank order] uvarint edge count, then
//	            ascending edge IDs delta-encoded as uvarints (first
//	            absolute, rest gaps)
//
// Version 1 also stored the tree depth after the iterations, and after
// the build cost a flag byte and the tree: uvarint root, uvarint node
// count n, then n varints, each node's parent-edge ID or -1.
//
// Every cold build is persisted through here, so it allocates nothing
// but b's growth whatever n is: b grows at most once, to a bound from k
// and Σ|H_i|, and the part rank table, on the stack up to 256 parts, also
// yields the partition fingerprint. The construction lists every H_i in
// ascending order; only an H_i that is not is sorted, in a scratch copy.
func appendShortcut(b []byte, graphFP service.Fingerprint, opts shortcut.Options, res *shortcut.Result,
	buildTime time.Duration) ([]byte, service.Fingerprint, error) {

	s := res.Shortcut
	if !graph.IsCanonical(s.G) {
		return nil, 0, errNotCanonical
	}
	if bt := s.G.BFSTree(); s.Tree == nil || s.Tree.Root != bt.Root || !slices.Equal(s.Tree.ParentEdge, bt.ParentEdge) {
		return nil, 0, errTreeNotCanonical
	}
	k := len(s.H)
	var stack rankStack
	rank, byRank := partRanks(s.Parts, stack[:])
	partFP := service.FingerprintPartitionRanks(s.Parts, rank)
	total := 0
	for i, h := range s.H {
		if s.Covered[i] {
			total += len(h)
		}
	}
	// Upper bound on the payload: the head and 11 varints of any size
	// (options, metadata, build time, k), then the bitmap; every edge
	// count, first ID and gap is below m.
	m := uint64(s.G.NumEdges())
	size := 1 + 16 + 11*binary.MaxVarintLen64 + (k+7)/8 + (k+total)*uvarintLen(m)
	b = slices.Grow(b, size)
	b = append(b, shortcutPayloadVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(graphFP))
	b = binary.BigEndian.AppendUint64(b, uint64(partFP))
	for _, v := range [...]int{opts.Delta, opts.MaxDelta, opts.CongestionFactor, opts.BlockFactor, opts.MaxIterations} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range [...]int{res.Delta, res.CongestionThreshold, res.BlockBudget, res.Iterations} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, buildTime.Nanoseconds())
	b = binary.AppendUvarint(b, uint64(k))
	bitmap := len(b)
	for range (k + 7) / 8 {
		b = append(b, 0)
	}
	for i, c := range s.Covered {
		if c {
			r := rank[i]
			b[bitmap+int(r/8)] |= 1 << (r % 8)
		}
	}
	for _, i := range byRank {
		if !s.Covered[i] {
			continue
		}
		h := s.H[i]
		if !slices.IsSorted(h) {
			// The IDs are distinct, so any sort yields this one order.
			h = slices.Sorted(slices.Values(h))
		}
		b = binary.AppendUvarint(b, uint64(len(h)))
		prev := 0
		for j, id := range h {
			if j == 0 {
				b = binary.AppendUvarint(b, uint64(id))
			} else {
				b = binary.AppendUvarint(b, uint64(id-prev))
			}
			prev = id
		}
	}
	return b, partFP, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintReader pulls varints off a payload tail with uniform error
// handling.
type varintReader struct {
	b   []byte
	err error
}

func (r *varintReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *varintReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *varintReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = fmt.Errorf("store: truncated payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *varintReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("store: truncated payload")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// record is everything a store read hands out that is not a slice, in one
// allocation: the Result, its Shortcut, the Shortcut's tree header and, on
// a key-only read, the record's own partition.
type record struct {
	res  shortcut.Result
	s    shortcut.Shortcut
	tree tree.Rooted
	part partition.Partition
}

// shortcutHead is a shortcut payload read up to its edge lists, with every
// check that needs no allocation done: what both reads take from it before
// they allocate.
type shortcutHead struct {
	shortcutMeta
	opts shortcut.Options
	// res holds the stored result metadata, the tree depth (the graph's)
	// and nothing else.
	res     shortcut.Result
	buildNs int64
	// tree is the graph's shared BFS tree.
	tree   tree.Rooted
	k      int
	bitmap []byte
	// total is the number of edges over every covered part; edges reads
	// from the first covered part's edge count on.
	total int
	edges varintReader
}

// parse reads a shortcut payload of either version up to its edge lists,
// against g (the serving process's representative for the record's graph
// fingerprint), which must be canonical: the dependency head, the build
// options, the result metadata and the build cost. The tree is g's
// memoized BFS tree and the tree depth that tree's height, at least 1, as
// the Builder computes it; a version 1 payload's stored tree (readTreeV1)
// and depth must equal them. Then the part count, at most g's node count,
// and the coverage bitmap, and a pre-pass over the per-part edge counts
// totals the H sets: each count is capped by m and by the payload bytes
// left, which every listed edge takes at least one of, so a read sizes its
// edge array by the total before anything is allocated.
func (h *shortcutHead) parse(payload []byte, g *graph.Graph) error {
	if !graph.IsCanonical(g) {
		return errNotCanonical
	}
	var err error
	if h.shortcutMeta, err = parseShortcutMeta(payload); err != nil {
		return err
	}
	v1 := payload[0] == shortcutPayloadV1
	r := varintReader{b: payload[17:]}
	for _, f := range [...]*int{&h.opts.Delta, &h.opts.MaxDelta, &h.opts.CongestionFactor, &h.opts.BlockFactor, &h.opts.MaxIterations} {
		*f = int(r.varint())
	}
	for _, f := range [...]*int{&h.res.Delta, &h.res.CongestionThreshold, &h.res.BlockBudget, &h.res.Iterations} {
		*f = int(r.varint())
	}
	var depth int64
	if v1 {
		depth = r.varint()
	}
	h.buildNs = r.varint()
	if err := tree.SharedInto(&h.tree, g); err != nil {
		return err
	}
	h.res.TreeDepth = max(1, h.tree.MaxDepth())
	if v1 {
		if err := readTreeV1(&r, g, &h.tree); err != nil {
			return err
		}
		if depth != int64(h.res.TreeDepth) {
			return fmt.Errorf("%w: tree depth %d stored, the graph's BFS tree has depth %d",
				errTreeNotCanonical, depth, h.res.TreeDepth)
		}
	}
	k := r.uvarint()
	if r.err != nil {
		return r.err
	}
	// A partition of g has at most one part per node.
	if n := g.NumNodes(); k > uint64(n) {
		return fmt.Errorf("%d parts stored for %d nodes", k, n)
	}
	h.k = int(k)
	if h.bitmap = r.bytes((h.k + 7) / 8); r.err != nil {
		return r.err
	}
	m := uint64(g.NumEdges())
	h.edges = r
	for rnk := 0; rnk < h.k; rnk++ {
		if !h.covered(rnk) {
			continue
		}
		cnt := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if cnt > m {
			return fmt.Errorf("part of rank %d lists %d edges, graph has %d", rnk, cnt, m)
		}
		if cnt > uint64(len(r.b)) {
			return fmt.Errorf("part of rank %d lists %d edges in %d remaining payload bytes", rnk, cnt, len(r.b))
		}
		h.total += int(cnt)
		for ; cnt > 0 && r.err == nil; cnt-- {
			r.uvarint()
		}
	}
	return r.err
}

// covered reports whether the part of canonical rank rnk has a shortcut.
func (h *shortcutHead) covered(rnk int) bool { return h.bitmap[rnk/8]&(1<<(rnk%8)) != 0 }

// fill makes rec the result of h over g and parts, with H and Covered the
// caller's arrays of k entries each, to be filled by readEdges.
func (h *shortcutHead) fill(rec *record, g *graph.Graph, parts *partition.Partition, hs [][]int, covered []bool) {
	rec.tree = h.tree
	rec.s = shortcut.Shortcut{G: g, Parts: parts, Tree: &rec.tree, H: hs, Covered: covered}
	rec.res = h.res
	rec.res.Shortcut = &rec.s
}

// readEdges decodes the edge lists the pre-pass checked into s.H and
// s.Covered, indexed by part: byRank[rank], or the rank itself when byRank
// is nil (the record's own partition, which is in canonical order). Each
// list is ascending edge IDs, the first absolute and the rest gaps; a gap
// of 0 repeats an edge, and an ID must be below m (a gap of m or more is
// refused before the running sum can wrap back into range). Every H_i is a
// full slice expression of edges, which must have room for h.total IDs, so
// appending to one reallocates instead of running into the next. No bytes
// may trail.
func (h *shortcutHead) readEdges(s *shortcut.Shortcut, edges []int, byRank []int32) error {
	r := h.edges
	m := uint64(s.G.NumEdges())
	edges = edges[:0]
	for rnk := 0; rnk < h.k; rnk++ {
		if !h.covered(rnk) {
			continue
		}
		i := rnk
		if byRank != nil {
			i = int(byRank[rnk])
		}
		s.Covered[i] = true
		cnt := r.uvarint() // checked by the pre-pass
		start := len(edges)
		var prev uint64
		for j := uint64(0); j < cnt; j++ {
			gap := r.uvarint()
			switch {
			case j == 0:
				prev = gap
			case gap == 0:
				return fmt.Errorf("part %d repeats an edge", i)
			case gap >= m:
				// prev+gap is out of range, and may wrap past it.
				return fmt.Errorf("part %d skips %d edges, graph has %d", i, gap, m)
			default:
				prev += gap
			}
			if prev >= m {
				return fmt.Errorf("edge %d out of range [0,%d)", prev, m)
			}
			edges = append(edges, int(prev)) // within the pre-pass's total
		}
		s.H[i] = edges[start:len(edges):len(edges)]
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return nil
}

// decodeRecord is the key-only read: it reconstructs the shortcut payload
// spay against g and the partition record ppay it names, of either
// version, in one pass over each and four allocations whatever n and k
// are: the record (Result, Shortcut, tree header and partition), one []int
// (PartOf, then the parts' nodes, then every H_i's edges), one [][]int
// (Parts, then H) and Covered. Before anything is allocated the shortcut
// head is parsed (shortcutHead.parse) and the partition header must fit
// its payload (parsePartition), cover g's nodes and have the shortcut's
// part count. The labels are read straight into PartOf, each below k and,
// on version 2, in shortest form, with no bytes trailing, and streamed
// through the partition fingerprint and the key in the same pass
// (service.RecordHash); they must hash to the fingerprint the shortcut
// names. partition.FromCanonical lays the parts out after PartOf and
// requires the labels dense and in first-appearance order and every part
// connected, so the partition is the record's own, in canonical part
// order, and an accepted partition payload is its encoding byte for byte.
// The result must pass Validate and the stored inputs re-derive key, so a
// record can never be served under a key it does not hash to.
func decodeRecord(spay, ppay []byte, key service.Fingerprint, g *graph.Graph) (*shortcut.Result, time.Duration, error) {
	fail := func(err error) (*shortcut.Result, time.Duration, error) {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	var h shortcutHead
	if err := h.parse(spay, g); err != nil {
		return fail(err)
	}
	partErr := func(err error) (*shortcut.Result, time.Duration, error) {
		return fail(fmt.Errorf("partition %s: %w", h.partFP, err))
	}
	lab, err := parsePartition(ppay)
	if err != nil {
		return partErr(err)
	}
	n, k := g.NumNodes(), h.k
	switch {
	case lab.n != n:
		return partErr(fmt.Errorf("covers %d nodes, graph has %d", lab.n, n))
	case lab.k != k:
		return partErr(fmt.Errorf("has %d parts, the shortcut %d", lab.k, k))
	}
	rec := new(record)
	ints := make([]int, 2*n+h.total) // PartOf, the parts' nodes, the H_i's edges
	lists := make([][]int, 2*k)      // Parts, then H
	partOf := ints[: n : 2*n]
	hash := service.NewRecordHash(h.graphFP, n, k)
	for v := range partOf {
		if partOf[v], err = lab.next(v); err != nil {
			return partErr(err)
		}
		hash.Label(partOf[v])
	}
	if err := lab.end(); err != nil {
		return partErr(err)
	}
	if got := hash.Partition(); got != h.partFP {
		return partErr(fmt.Errorf("content hashes to %s", got))
	}
	if err := partition.FromCanonical(&rec.part, g, partOf, lists[:k:k]); err != nil {
		return partErr(err)
	}
	h.fill(rec, g, &rec.part, lists[k:], make([]bool, k))
	if err := h.readEdges(&rec.s, ints[2*n:], nil); err != nil {
		return fail(err)
	}
	if err := rec.s.Validate(); err != nil {
		return fail(err)
	}
	if got := hash.Key(h.opts); got != key {
		return fail(fmt.Errorf("stored inputs re-derive key %s", got))
	}
	return &rec.res, time.Duration(h.buildNs), nil
}

// decodeShortcut is the partition-given read: it reconstructs the stored
// shortcut against g and parts, the requested partition, with the same
// head parse, edge decoder and checks as decodeRecord and the key
// re-derived over parts. Its allocations are the record, H, Covered and
// the edge array, and the part rank table past 256 parts.
func decodeShortcut(payload []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {

	fail := func(err error) (*shortcut.Result, time.Duration, error) {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	var h shortcutHead
	if err := h.parse(payload, g); err != nil {
		return fail(err)
	}
	if h.k != parts.NumParts() {
		return fail(fmt.Errorf("%d parts stored, request has %d", h.k, parts.NumParts()))
	}
	var stack rankStack
	_, byRank := partRanks(parts, stack[:])
	rec := new(record)
	h.fill(rec, g, parts, make([][]int, h.k), make([]bool, h.k))
	if err := h.readEdges(&rec.s, make([]int, h.total), byRank); err != nil {
		return fail(err)
	}
	if err := rec.s.Validate(); err != nil {
		return fail(err)
	}
	if got := service.ShortcutKey(h.graphFP, parts, h.opts); got != key {
		return fail(fmt.Errorf("stored inputs re-derive key %s", got))
	}
	return &rec.res, time.Duration(h.buildNs), nil
}

// decodeStored reads a stored shortcut against g and parts or, with parts
// nil, against its own partition record ppay: decodeShortcut or
// decodeRecord.
func decodeStored(spay, ppay []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {
	if parts != nil {
		return decodeShortcut(spay, key, g, parts)
	}
	return decodeRecord(spay, ppay, key, g)
}

// readTreeV1 reads a version 1 payload's tree section — a flag byte, then
// the root, the node count and every node's parent-edge ID — and checks
// that the stored tree is shared, g's memoized BFS tree, entry for entry.
// A record stored without a tree is refused: every H_i must be restricted
// to g's tree, and version 2 reads every record on it.
func readTreeV1(r *varintReader, g *graph.Graph, shared *tree.Rooted) error {
	if flag := r.byte(); r.err != nil {
		return r.err
	} else if flag != 1 {
		return fmt.Errorf("%w: record stored without a tree", errTreeNotCanonical)
	}
	root := r.uvarint()
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if n != uint64(g.NumNodes()) || root >= n {
		return fmt.Errorf("tree covers %d nodes (root %d), graph has %d", n, root, g.NumNodes())
	}
	if root != uint64(shared.Root) {
		return fmt.Errorf("%w: tree root %d, the graph's BFS tree is rooted at %d", errTreeNotCanonical, root, shared.Root)
	}
	for v, want := range shared.ParentEdge {
		if id := r.varint(); r.err != nil {
			return r.err
		} else if id != int64(want) {
			return fmt.Errorf("%w: node %d has parent edge %d, the graph's BFS tree %d", errTreeNotCanonical, v, id, want)
		}
	}
	return nil
}
