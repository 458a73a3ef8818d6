package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
// Graphs and partitions persist as exactly the canonical byte encodings the
// fingerprints are computed over (graph.AppendCanonical,
// service.AppendPartitionCanonical). That makes the store self-verifying:
// for these kinds, FNV-1a over the payload body *is* the record key, so
// `locshortctl verify` can prove content-addressing integrity without any
// side information, and a decoded object re-encodes to the identical bytes.
//
// Shortcut payloads cannot use the in-memory edge IDs of the engine's
// representative graph — those depend on ingestion order, which is not
// reproduced after a restart (the warm-started representative is decoded
// from the canonical graph record). All edge IDs in a shortcut payload are
// therefore expressed in *canonical edge order*: the order of the edges in
// the canonical graph encoding. encodeShortcut translates from the live
// representative into canonical order; decodeShortcut translates back into
// whatever representative the serving process holds.
const (
	graphPayloadVersion     = 1
	partitionPayloadVersion = 1
	shortcutPayloadVersion  = 1
)

// maxReasonableCount bounds node/edge/part counts read from disk before any
// allocation is sized from them, so a corrupt length cannot OOM the opener.
const maxReasonableCount = 1 << 40

// maxGraphNodes bounds the node count of a decoded graph payload. Unlike
// the edge count — which the payload length pins down exactly — the node
// count is a bare header field that sizes graph.New's allocations, and
// since the binary ingest path feeds decodeGraph straight from the network
// a loose bound is an amplification lever: a 20-byte payload claiming 2^38
// nodes would OOM the daemon before edge validation sees a single byte.
// 2^26 nodes is far beyond what the 64 MiB request body cap admits for any
// connected graph (n <= edges+1 ~ 2.8M) while staying a bounded allocation.
const maxGraphNodes = 1 << 26

// edgePerm is the bijection between a graph's live edge IDs and canonical
// edge order (the sort order of graph.AppendCanonical, ties broken by live
// ID — any tie order is equivalent because tied edges are identical).
type edgePerm struct {
	toCanon   []int32 // live edge ID -> canonical index
	fromCanon []int32 // canonical index -> live edge ID
}

// newEdgePerm computes the canonical edge permutation of g.
func newEdgePerm(g *graph.Graph) *edgePerm {
	edges := g.EdgeSlice()
	m := len(edges)
	p := &edgePerm{toCanon: make([]int32, m), fromCanon: make([]int32, m)}
	for i := range p.fromCanon {
		p.fromCanon[i] = int32(i)
	}
	sort.Slice(p.fromCanon, func(a, b int) bool {
		ea, eb := edges[p.fromCanon[a]], edges[p.fromCanon[b]]
		ua, va := ea.U, ea.V
		if ua > va {
			ua, va = va, ua
		}
		ub, vb := eb.U, eb.V
		if ub > vb {
			ub, vb = vb, ub
		}
		if ua != ub {
			return ua < ub
		}
		if va != vb {
			return va < vb
		}
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return p.fromCanon[a] < p.fromCanon[b]
	})
	for canon, live := range p.fromCanon {
		p.toCanon[live] = int32(canon)
	}
	return p
}

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
// content fingerprint of the payload matches key. The decoded graph's edge
// IDs follow canonical edge order.
func decodeGraph(payload []byte, key service.Fingerprint) (*graph.Graph, error) {
	if len(payload) < 1 || payload[0] != graphPayloadVersion {
		return nil, fmt.Errorf("store: graph %s: bad payload version", key)
	}
	body := payload[1:]
	if got := service.FingerprintBytes(body); got != key {
		return nil, fmt.Errorf("store: graph %s: content hashes to %s", key, got)
	}
	if len(body) < 16 {
		return nil, fmt.Errorf("store: graph %s: short payload", key)
	}
	n := binary.BigEndian.Uint64(body)
	m := binary.BigEndian.Uint64(body[8:])
	if n > maxGraphNodes || m > maxReasonableCount {
		return nil, fmt.Errorf("store: graph %s: implausible sizes n=%d m=%d", key, n, m)
	}
	if uint64(len(body)) != 16+24*m {
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

// encodePartition renders the partition payload: version byte + canonical
// assignment encoding.
func encodePartition(p *partition.Partition) []byte {
	b := make([]byte, 1, 1+16+8*len(p.PartOf))
	b[0] = partitionPayloadVersion
	return service.AppendPartitionCanonical(b, p)
}

// decodePartition reconstructs a partition from its payload against g.
// The payload body must hash to key, and its header must fit both the
// payload length and g — n nodes in exactly 16+8n bytes, n equal to g's
// node count, at most n parts — before anything is allocated. The labels
// are read straight into the partition's PartOf, and
// partition.FromCanonical lays the parts out in the second half of that
// same allocation in one counting pass, so a decode allocates the same
// few times whatever n and k are. FromCanonical also
// requires the labels to be dense and in first-appearance order, and each
// part connected: an accepted payload is the canonical encoding of the
// partition it decodes to, byte for byte.
func decodePartition(payload []byte, key service.Fingerprint, g *graph.Graph) (*partition.Partition, error) {
	if len(payload) < 1 || payload[0] != partitionPayloadVersion {
		return nil, fmt.Errorf("store: partition %s: bad payload version", key)
	}
	body := payload[1:]
	if got := service.FingerprintBytes(body); got != key {
		return nil, fmt.Errorf("store: partition %s: content hashes to %s", key, got)
	}
	if len(body) < 16 {
		return nil, fmt.Errorf("store: partition %s: short payload", key)
	}
	n := binary.BigEndian.Uint64(body)
	k := binary.BigEndian.Uint64(body[8:])
	if labels := uint64(len(body) - 16); labels%8 != 0 || n != labels/8 {
		return nil, fmt.Errorf("store: partition %s: payload length %d for %d nodes", key, len(body), n)
	}
	if n != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("store: partition %s: covers %d nodes, graph has %d", key, n, g.NumNodes())
	}
	if k > n {
		return nil, fmt.Errorf("store: partition %s: %d parts for %d nodes", key, k, n)
	}
	partOf := make([]int, n, 2*n) // PartOf, then the parts' nodes
	for v := range partOf {
		l := binary.BigEndian.Uint64(body[16+8*v:])
		switch {
		case l == ^uint64(0):
			partOf[v] = -1
		case l >= k:
			return nil, fmt.Errorf("store: partition %s: node %d label %d out of range [0,%d)", key, v, l, k)
		default:
			partOf[v] = int(l)
		}
	}
	p, err := partition.FromCanonical(g, partOf, int(k))
	if err != nil {
		return nil, fmt.Errorf("store: partition %s: %w", key, err)
	}
	return p, nil
}

// decodeRecord decodes a stored shortcut against g and parts or, with
// parts nil, against the partition record ppay that the shortcut payload
// names: ppay must hash to that partition fingerprint and decode to
// connected parts of g, and the key is re-derived over its bytes. The
// result's partition is then the record's own, in canonical part order.
func decodeRecord(spay, ppay []byte, key service.Fingerprint, perm *edgePerm,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {

	if parts != nil {
		return decodeShortcut(spay, key, perm, g, parts, nil)
	}
	meta, err := parseShortcutMeta(spay)
	if err != nil {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	if parts, err = decodePartition(ppay, meta.partFP, g); err != nil {
		return nil, 0, err
	}
	return decodeShortcut(spay, key, perm, g, parts, ppay[1:])
}

// shortcutMeta is the decoded fixed-size head of a shortcut payload, enough
// to know which graph and partition records the shortcut depends on without
// materializing the shortcut itself (the segment replay parses exactly this
// much to index records).
type shortcutMeta struct {
	graphFP service.Fingerprint
	partFP  service.Fingerprint
}

// parseShortcutMeta reads the dependency head of a shortcut payload.
func parseShortcutMeta(payload []byte) (shortcutMeta, error) {
	if len(payload) < 17 || payload[0] != shortcutPayloadVersion {
		return shortcutMeta{}, fmt.Errorf("store: shortcut payload: bad version or truncated head")
	}
	return shortcutMeta{
		graphFP: service.Fingerprint(binary.BigEndian.Uint64(payload[1:])),
		partFP:  service.Fingerprint(binary.BigEndian.Uint64(payload[9:])),
	}, nil
}

// encodeShortcut renders a shortcut payload. Layout after the version byte
// and the two big-endian dependency fingerprints (graph, partition):
//
//	varint x5   build options (delta, maxdelta, cf, bf, iters)
//	varint x5   result metadata (delta', congestion threshold, block
//	            budget, iterations, tree depth)
//	varint      build cost in nanoseconds
//	byte        1 if a restriction tree follows, else 0
//	[tree]      uvarint root, uvarint node count n, then n varints:
//	            canonical parent-edge ID, or -1 for the root / non-tree nodes
//	uvarint     part count k
//	k bits      coverage bitmap, little-endian within bytes, indexed by
//	            canonical part rank (see partCanonOrder)
//	[per covered part, in canonical rank order] uvarint edge count, then
//	            ascending canonical edge IDs delta-encoded as uvarints
//	            (first absolute, rest gaps)
func encodeShortcut(perm *edgePerm, graphFP, partFP service.Fingerprint,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) []byte {

	s := res.Shortcut
	b := make([]byte, 1, 64+len(s.H)*8)
	b[0] = shortcutPayloadVersion
	b = binary.BigEndian.AppendUint64(b, uint64(graphFP))
	b = binary.BigEndian.AppendUint64(b, uint64(partFP))
	for _, v := range [...]int{opts.Delta, opts.MaxDelta, opts.CongestionFactor, opts.BlockFactor, opts.MaxIterations} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range [...]int{res.Delta, res.CongestionThreshold, res.BlockBudget, res.Iterations, res.TreeDepth} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, buildTime.Nanoseconds())
	if t := s.Tree; t != nil {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(t.Root))
		b = binary.AppendUvarint(b, uint64(len(t.Parent)))
		for v := range t.Parent {
			if t.Parent[v] < 0 || t.ParentEdge[v] < 0 {
				b = binary.AppendVarint(b, -1)
			} else {
				b = binary.AppendVarint(b, int64(perm.toCanon[t.ParentEdge[v]]))
			}
		}
	} else {
		b = append(b, 0)
	}
	k := len(s.H)
	b = binary.AppendUvarint(b, uint64(k))
	rank, byRank := partRanks(s.Parts)
	bitmap := make([]byte, (k+7)/8)
	for i, c := range s.Covered {
		if c {
			r := rank[i]
			bitmap[r/8] |= 1 << (r % 8)
		}
	}
	b = append(b, bitmap...)
	canon := make([]int32, 0, 64)
	for _, i := range byRank {
		if !s.Covered[i] {
			continue
		}
		canon = canon[:0]
		for _, id := range s.H[i] {
			canon = append(canon, perm.toCanon[id])
		}
		sort.Slice(canon, func(a, b int) bool { return canon[a] < canon[b] })
		b = binary.AppendUvarint(b, uint64(len(canon)))
		prev := int32(0)
		for j, id := range canon {
			if j == 0 {
				b = binary.AppendUvarint(b, uint64(id))
			} else {
				b = binary.AppendUvarint(b, uint64(id-prev))
			}
			prev = id
		}
	}
	return b
}

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
// process's representative for the record's graph fingerprint) and parts
// (the requested partition, or the record's own when partCanon holds the
// canonical encoding it was decoded from). It translates canonical edge
// IDs back into g's live IDs, rebuilds the restriction tree, validates the
// result structurally, and verifies that the stored (graph, partition,
// options) triple re-derives the record key — over partCanon's bytes when
// given — so a record can never be served under a key it does not hash
// to.
//
// A store read runs this on every cache miss, so its allocations are a
// constant number independent of n and k: parent and parent-edge share one
// array, and every H set slices one backing array that a pre-pass over the
// per-part counts sizes — capped by the payload bytes left, which every
// listed edge takes at least one of, before anything is allocated.
func decodeShortcut(payload []byte, key service.Fingerprint, perm *edgePerm,
	g *graph.Graph, parts *partition.Partition, partCanon []byte) (*shortcut.Result, time.Duration, error) {

	fail := func(err error) (*shortcut.Result, time.Duration, error) {
		return nil, 0, fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	meta, err := parseShortcutMeta(payload)
	if err != nil {
		return fail(err)
	}
	r := varintReader{b: payload[17:]}
	var opts shortcut.Options
	for _, f := range [...]*int{&opts.Delta, &opts.MaxDelta, &opts.CongestionFactor, &opts.BlockFactor, &opts.MaxIterations} {
		*f = int(r.varint())
	}
	res := &shortcut.Result{}
	for _, f := range [...]*int{&res.Delta, &res.CongestionThreshold, &res.BlockBudget, &res.Iterations, &res.TreeDepth} {
		*f = int(r.varint())
	}
	buildNs := r.varint()
	m := g.NumEdges()
	liveEdge := func(canon uint64) (int, error) {
		if canon >= uint64(m) {
			return 0, fmt.Errorf("canonical edge %d out of range [0,%d)", canon, m)
		}
		return int(perm.fromCanon[canon]), nil
	}
	var rooted *tree.Rooted
	if r.byte() == 1 {
		root := r.uvarint()
		n := r.uvarint()
		if r.err != nil {
			return fail(r.err)
		}
		if n != uint64(g.NumNodes()) || root >= n {
			return fail(fmt.Errorf("tree covers %d nodes (root %d), graph has %d", n, root, g.NumNodes()))
		}
		links := make([]int, 2*n)
		parent, parentEdge := links[:n:n], links[n:]
		for v := range parent {
			ce := r.varint()
			if r.err != nil {
				return fail(r.err)
			}
			if ce < 0 {
				parent[v], parentEdge[v] = -1, -1
				continue
			}
			id, err := liveEdge(uint64(ce))
			if err != nil {
				return fail(err)
			}
			e := g.Edge(id)
			switch v {
			case e.U:
				parent[v] = e.V
			case e.V:
				parent[v] = e.U
			default:
				return fail(fmt.Errorf("node %d is not an endpoint of its parent edge %d", v, id))
			}
			parentEdge[v] = id
		}
		rooted, err = tree.FromParents(int(root), parent, parentEdge)
		if err != nil {
			return fail(err)
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
	if partCanon == nil {
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
	s := &shortcut.Shortcut{
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
				return fail(fmt.Errorf("part %d repeats a canonical edge", i))
			case gap >= uint64(m):
				// prev+gap is out of range, and may wrap past it.
				return fail(fmt.Errorf("part %d skips %d canonical edges, graph has %d", i, gap, m))
			default:
				prev += gap
			}
			id, err := liveEdge(prev)
			if err != nil {
				return fail(err)
			}
			edges = append(edges, id)
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
	var got service.Fingerprint
	if partCanon != nil {
		got = service.ShortcutKeyCanonical(meta.graphFP, partCanon, opts)
	} else {
		got = service.ShortcutKey(meta.graphFP, parts, opts)
	}
	if got != key {
		return fail(fmt.Errorf("stored inputs re-derive key %s", got))
	}
	res.Shortcut = s
	return res, time.Duration(buildNs), nil
}
