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
// (service.FingerprintLabels) and never built. A shortcut payload names
// its graph and partition and re-derives its key from them and its
// options.
//
// Shortcut payloads hold edge IDs, and an edge ID is an index into the
// canonical graph encoding: every graph a shortcut is encoded over or
// decoded against is in canonical form (graph.IsCanonical), which is the
// form every engine representative has (spec, JSON or binary ingest, peer
// push, warm start alike), so live IDs are canonical IDs and move
// untranslated. encodeShortcut refuses a graph that is not canonical. The
// restriction tree of every H_i is the graph's own BFS tree
// ((*graph.Graph).BFSTree), which the graph alone determines, so a payload
// stores neither the tree nor its depth: decodeShortcut hands out the
// graph's memoized tree.
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

// partRanks returns each part's canonical rank — the order of first
// appearance over nodes 0..n-1, i.e. the part order of the canonical
// partition encoding (Partition.CanonicalRanks) — and the inverse map
// byRank from rank to part index, both in one array. Every partition
// instance with the same fingerprint shares these ranks even when its
// Parts slice is ordered differently (BFSBlobs orders by seed, FromLabels
// by first appearance), so shortcut payloads index their per-part data by
// rank, never by instance order.
func partRanks(p *partition.Partition) (rank, byRank []int32) {
	k := p.NumParts()
	buf := make([]int32, 2*k)
	rank, byRank = p.CanonicalRanks(buf[:k:k]), buf[k:]
	for i, r := range rank {
		byRank[r] = int32(i)
	}
	return rank, byRank
}

// encodeGraph renders the graph payload: version byte + canonical encoding.
func encodeGraph(g *graph.Graph) []byte {
	b := make([]byte, 1, 1+16+24*g.NumEdges())
	b[0] = graphPayloadVersion
	return g.AppendCanonical(b)
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

// encodePartition renders the partition payload: the version byte,
// uvarint n, uvarint k, then one uvarint per node, its canonical label
// (the rank of its part by first appearance, Partition.CanonicalRanks)
// plus one, or 0 for an uncovered node.
func encodePartition(p *partition.Partition) []byte {
	var stack [128]int32
	rank := p.CanonicalRanks(stack[:])
	n, k := uint64(len(p.PartOf)), uint64(len(rank))
	b := make([]byte, 1, 1+uvarintLen(n)+uvarintLen(k)+int(n)*uvarintLen(k))
	b[0] = partitionPayloadVersion
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

// partitionLabels is a partition payload's header and the label varints
// that follow it, not yet read.
type partitionLabels struct {
	n, k int
	b    []byte
}

// parsePartition reads a partition payload's header. n is held to the
// bytes that follow, since every label takes at least one, and k to n,
// before anything is sized by either.
func parsePartition(payload []byte) (partitionLabels, error) {
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

// next reads node v's label off the front of the label varints: its part
// rank, or -1 for an uncovered node. A label must be below k and in its
// shortest varint form, so a partition has exactly one payload.
func (l *partitionLabels) next(v int) (int, error) {
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
// graph, for Verify. A version 2 payload's labels are checked as
// decodePartition checks them and streamed through the hash of their
// canonical expansion, which is never built; a version 1 body is that
// expansion, and is hashed as it is.
func partitionKey(payload []byte) (service.Fingerprint, error) {
	if len(payload) > 0 && payload[0] == partitionPayloadV1 {
		return service.FingerprintBytes(payload[1:]), nil
	}
	lab, err := parsePartition(payload)
	if err != nil {
		return 0, err
	}
	fp := service.FingerprintLabels(lab.n, lab.k, func(v int) int {
		l, lerr := lab.next(v)
		if err == nil {
			err = lerr
		}
		return l
	})
	if err == nil {
		err = lab.end()
	}
	return fp, err
}

// decodePartition reconstructs a partition from its payload against g.
// Before anything is allocated the header must fit both the payload and
// g: n at most the label bytes left (version 1: exactly 16+8n bytes), n
// equal to g's node count, at most n parts. Every label must be below k,
// no bytes may trail, and the labels must hash to key (version 1: the
// body, first). They are read straight into the partition's PartOf, and
// partition.FromCanonical lays the parts out in the second half of that
// same allocation in one counting pass, so a decode allocates the same
// few times whatever n and k are. FromCanonical also requires the labels
// to be dense and in first-appearance order, and each part connected: an
// accepted payload is the encoding of the partition it decodes to, byte
// for byte.
func decodePartition(payload []byte, key service.Fingerprint, g *graph.Graph) (*partition.Partition, error) {
	labels := readLabels
	if len(payload) > 0 && payload[0] == partitionPayloadV1 {
		labels = readLabelsV1
	}
	partOf, k, err := labels(payload, key, g)
	if err == nil {
		var p *partition.Partition
		if p, err = partition.FromCanonical(g, partOf, k); err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("store: partition %s: %w", key, err)
}

// readLabels reads a version 2 payload's labels into a PartOf with room
// for the parts' nodes after it, and returns it with the part count.
func readLabels(payload []byte, key service.Fingerprint, g *graph.Graph) ([]int, int, error) {
	lab, err := parsePartition(payload)
	if err != nil {
		return nil, 0, err
	}
	if lab.n != g.NumNodes() {
		return nil, 0, fmt.Errorf("covers %d nodes, graph has %d", lab.n, g.NumNodes())
	}
	partOf := make([]int, lab.n, 2*lab.n) // PartOf, then the parts' nodes
	for v := range partOf {
		if partOf[v], err = lab.next(v); err != nil {
			return nil, 0, err
		}
	}
	if err := lab.end(); err != nil {
		return nil, 0, err
	}
	if got := service.FingerprintLabels(lab.n, lab.k, func(v int) int { return partOf[v] }); got != key {
		return nil, 0, fmt.Errorf("content hashes to %s", got)
	}
	return partOf, lab.k, nil
}

// readLabelsV1 is readLabels for a version 1 payload, whose body is the
// canonical encoding itself.
func readLabelsV1(payload []byte, key service.Fingerprint, g *graph.Graph) ([]int, int, error) {
	body := payload[1:]
	if got := service.FingerprintBytes(body); got != key {
		return nil, 0, fmt.Errorf("content hashes to %s", got)
	}
	if len(body) < 16 {
		return nil, 0, errors.New("short payload")
	}
	n := binary.BigEndian.Uint64(body)
	k := binary.BigEndian.Uint64(body[8:])
	if labels := uint64(len(body) - 16); labels%8 != 0 || n != labels/8 {
		return nil, 0, fmt.Errorf("payload length %d for %d nodes", len(body), n)
	}
	if n != uint64(g.NumNodes()) {
		return nil, 0, fmt.Errorf("covers %d nodes, graph has %d", n, g.NumNodes())
	}
	if k > n {
		return nil, 0, fmt.Errorf("%d parts for %d nodes", k, n)
	}
	partOf := make([]int, n, 2*n) // PartOf, then the parts' nodes
	for v := range partOf {
		l := binary.BigEndian.Uint64(body[16+8*v:])
		switch {
		case l == ^uint64(0):
			partOf[v] = -1
		case l >= k:
			return nil, 0, fmt.Errorf("node %d label %d out of range [0,%d)", v, l, k)
		default:
			partOf[v] = int(l)
		}
	}
	return partOf, int(k), nil
}

// decodeRecord decodes a stored shortcut against g and parts or, with
// parts nil, against the partition record ppay that the shortcut payload
// names: ppay must hash to that partition fingerprint and decode to
// connected parts of g, and the key is re-derived over the partition it
// decodes to. The result's partition is then the record's own, in
// canonical part order.
func decodeRecord(spay, ppay []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {

	if parts != nil {
		return decodeShortcut(spay, key, g, parts, false)
	}
	meta, err := parseShortcutMeta(spay)
	if err != nil {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	if parts, err = decodePartition(ppay, meta.partFP, g); err != nil {
		return nil, 0, err
	}
	return decodeShortcut(spay, key, g, parts, true)
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

// encodeShortcut renders a shortcut payload and returns it with the
// fingerprint of the partition it names, that of res.Shortcut.Parts. The
// shortcut's graph must be canonical (errNotCanonical otherwise), so its
// edge IDs are written as they are, and its tree must be the graph's BFS
// tree — the same root and the same parent edge at every node — which
// decodeShortcut takes from the graph (errTreeNotCanonical otherwise).
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
// Every cold build is persisted through here, so the allocations are a
// constant few whatever n and k are: the payload is sized once from k and
// Σ|H_i|, and the part rank table also yields the partition fingerprint.
// The construction lists every H_i in ascending order; only an H_i that
// is not is sorted, in a scratch copy.
func encodeShortcut(graphFP service.Fingerprint, opts shortcut.Options, res *shortcut.Result,
	buildTime time.Duration) ([]byte, service.Fingerprint, error) {

	s := res.Shortcut
	if !graph.IsCanonical(s.G) {
		return nil, 0, errNotCanonical
	}
	if bt := s.G.BFSTree(); s.Tree == nil || s.Tree.Root != bt.Root || !slices.Equal(s.Tree.ParentEdge, bt.ParentEdge) {
		return nil, 0, errTreeNotCanonical
	}
	k := len(s.H)
	rank, byRank := partRanks(s.Parts)
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
	b := make([]byte, 1, size)
	b[0] = shortcutPayloadVersion
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

// decodeShortcut reconstructs the stored shortcut against g (the serving
// process's representative for the record's graph fingerprint, which must
// be canonical) and parts (the requested partition or, own, the record's
// own, in canonical part order). Its tree is g's memoized BFS tree and its
// tree depth that tree's height, at least 1, as the Builder computes it; a
// version 1 payload's stored tree (readTreeV1) and depth must equal them.
// It validates the result structurally, and verifies that the stored
// (graph, partition, options) triple re-derives the record key, so a
// record can never be served under a key it does not hash to.
//
// A store read runs this on every cache miss, so its allocations are a
// constant number independent of n and k: the Result and its Shortcut are
// one object, the tree is a header over the graph's arrays, and every H
// set slices one backing array that a pre-pass over the per-part counts
// sizes — capped by the payload bytes left, which every listed edge takes
// at least one of, before anything is allocated.
func decodeShortcut(payload []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition, own bool) (*shortcut.Result, time.Duration, error) {

	fail := func(err error) (*shortcut.Result, time.Duration, error) {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	if !graph.IsCanonical(g) {
		return fail(errNotCanonical)
	}
	meta, err := parseShortcutMeta(payload)
	if err != nil {
		return fail(err)
	}
	v1 := payload[0] == shortcutPayloadV1
	r := varintReader{b: payload[17:]}
	var opts shortcut.Options
	for _, f := range [...]*int{&opts.Delta, &opts.MaxDelta, &opts.CongestionFactor, &opts.BlockFactor, &opts.MaxIterations} {
		*f = int(r.varint())
	}
	both := &struct {
		res shortcut.Result
		s   shortcut.Shortcut
	}{}
	res, s := &both.res, &both.s
	for _, f := range [...]*int{&res.Delta, &res.CongestionThreshold, &res.BlockBudget, &res.Iterations} {
		*f = int(r.varint())
	}
	var depth int64
	if v1 {
		depth = r.varint()
	}
	buildNs := r.varint()
	m := g.NumEdges()
	rooted, err := tree.Shared(g)
	if err != nil {
		return fail(err)
	}
	res.TreeDepth = max(1, rooted.MaxDepth())
	if v1 {
		if err := readTreeV1(&r, g, rooted); err != nil {
			return fail(err)
		}
		if depth != int64(res.TreeDepth) {
			return fail(fmt.Errorf("%w: tree depth %d stored, the graph's BFS tree has depth %d",
				errTreeNotCanonical, depth, res.TreeDepth))
		}
	}
	k := r.uvarint()
	if r.err != nil {
		return fail(r.err)
	}
	if k != uint64(parts.NumParts()) {
		return fail(fmt.Errorf("%d parts stored, request has %d", k, parts.NumParts()))
	}
	bitmap := r.bytes((int(k) + 7) / 8)
	if r.err != nil {
		return fail(r.err)
	}
	covered := func(rnk int) bool { return bitmap[rnk/8]&(1<<(rnk%8)) != 0 }
	// byRank maps a canonical rank to a part index; nil is the identity,
	// for the record's own partition, which is in canonical order.
	var byRank []int32
	if !own {
		_, byRank = partRanks(parts)
	}
	part := func(rnk int) int {
		if byRank == nil {
			return rnk
		}
		return int(byRank[rnk])
	}
	// Pre-pass: the total H size, from the per-part counts.
	pre := r
	total := 0
	for rnk := 0; rnk < int(k); rnk++ {
		if !covered(rnk) {
			continue
		}
		i := part(rnk)
		cnt := pre.uvarint()
		if pre.err != nil {
			return fail(pre.err)
		}
		if cnt > uint64(m) {
			return fail(fmt.Errorf("part %d lists %d edges, graph has %d", i, cnt, m))
		}
		if cnt > uint64(len(pre.b)) {
			return fail(fmt.Errorf("part %d lists %d edges in %d remaining payload bytes", i, cnt, len(pre.b)))
		}
		total += int(cnt)
		for ; cnt > 0 && pre.err == nil; cnt-- {
			pre.uvarint()
		}
	}
	if pre.err != nil {
		return fail(pre.err)
	}
	*s = shortcut.Shortcut{
		G:       g,
		Parts:   parts,
		Tree:    rooted,
		H:       make([][]int, k),
		Covered: make([]bool, k),
	}
	edges := make([]int, 0, total)
	for rnk := 0; rnk < int(k); rnk++ {
		if !covered(rnk) {
			continue
		}
		i := part(rnk)
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
				return fail(fmt.Errorf("part %d repeats an edge", i))
			case gap >= uint64(m):
				// prev+gap is out of range, and may wrap past it.
				return fail(fmt.Errorf("part %d skips %d edges, graph has %d", i, gap, m))
			default:
				prev += gap
			}
			if prev >= uint64(m) {
				return fail(fmt.Errorf("edge %d out of range [0,%d)", prev, m))
			}
			edges = append(edges, int(prev))
		}
		s.H[i] = edges[start:len(edges):len(edges)]
	}
	if r.err != nil {
		return fail(r.err)
	}
	if len(r.b) != 0 {
		return fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	if got := service.ShortcutKey(meta.graphFP, parts, opts); got != key {
		return fail(fmt.Errorf("stored inputs re-derive key %s", got))
	}
	res.Shortcut = s
	return res, time.Duration(buildNs), nil
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
