package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"locshort/internal/service"
)

// Ring is a consistent-hash ring over a static node set. Each node projects
// VNodes virtual points onto the 64-bit circle; a key's position is its raw
// content fingerprint (already FNV-1a over canonical bytes, so uniform), and
// its owner is the node of the first point at or after it, wrapping. Because
// key positions are the fingerprints themselves, the arcs between points are
// literal fingerprint ranges — the store's inventory listing filters on them
// directly, with no second hash space to translate through.
//
// Virtual-point placement is stratified: the circle is divided into VNodes
// equal strata and point v of every node lands inside stratum v, jittered by
// a hash of (node, v) mixed through a splitmix64 finalizer. Each node
// contributes exactly one point per stratum, so ownership imbalance comes
// only from within-stratum ordering and shrinks like 1/VNodes — independent
// per-point hashing (the naive construction) only manages 1/sqrt(VNodes) and
// misses the 5%-at-64-vnodes balance bound this package unit-tests. The
// placement is still per-node deterministic: removing a node deletes its
// points and touches nobody else's, which is what keeps key movement
// minimal on membership change. Two points that land on the identical
// position (a 64-bit collision) are ordered by rendezvous weight — a second
// hash of (node, position) — so tie-breaking depends only on ring content,
// never on configuration file order.
//
// A Ring is immutable after New; membership change means building a new Ring.
// Removing a node reassigns exactly the arcs its own points owned (every
// other point is unchanged), which is the minimal-movement property the unit
// tests pin down.
type Ring struct {
	nodes  []string // sorted, unique
	vnodes int
	points []ringPoint // sorted by (pos, rendezvous weight desc)
}

type ringPoint struct {
	pos  uint64
	node int32 // index into nodes
}

// pointsPerVNode oversamples each configured virtual node into several
// internal ring points (the same trick as Ketama's 160 points per server):
// stratification alone removes point-count variance but gap lengths within a
// stratum still wander like 1/sqrt(points), so a configured 64 vnodes needs
// a few hundred internal points to hold the 5% balance bound. The cost is a
// slightly larger sorted array; lookups stay O(log points).
const pointsPerVNode = 8

// hash64 is FNV-1a over s followed by a splitmix64 finalizer.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijection that spreads nearby
// inputs across the full 64-bit circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousWeight orders points that collide on a position.
func rendezvousWeight(node string, pos uint64) uint64 {
	return hash64(node + "@" + strconv.FormatUint(pos, 16))
}

// NewRing builds the ring for the given membership. Nodes are sorted and
// must be unique and non-empty; vnodes must be at least 1.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes must be >= 1, got %d", vnodes)
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
	}
	strata := vnodes * pointsPerVNode
	r := &Ring{
		nodes:  sorted,
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(sorted)*strata),
	}
	// Stratified placement: stratum v spans [v*width, (v+1)*width) and every
	// node puts its v-th point inside it. width is the floor division, so a
	// sliver of at most strata-1 positions past the last stratum wraps to
	// the first point — immeasurable against 2^64.
	width := uint64(math.MaxUint64) / uint64(strata)
	for ni, n := range sorted {
		for v := 0; v < strata; v++ {
			jitter := hash64(n+"#"+strconv.Itoa(v)) % width
			r.points = append(r.points, ringPoint{
				pos:  uint64(v)*width + jitter,
				node: int32(ni),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.pos != pb.pos {
			return pa.pos < pb.pos
		}
		return rendezvousWeight(r.nodes[pa.node], pa.pos) >
			rendezvousWeight(r.nodes[pb.node], pb.pos)
	})
	return r, nil
}

// Nodes returns the membership, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// VNodes returns the virtual points per node.
func (r *Ring) VNodes() int { return r.vnodes }

// successor returns the index of the first point at or after pos, wrapping.
func (r *Ring) successor(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the node that owns key.
func (r *Ring) Owner(key service.Fingerprint) string {
	return r.nodes[r.points[r.successor(uint64(key))].node]
}

// Owners returns up to n distinct nodes for key, primary first, by walking
// successor points. This is the replica set: the record for key should live
// on Owners(key, replication).
func (r *Ring) Owners(key service.Fingerprint, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	start := r.successor(uint64(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Share returns the fraction of the keyspace node primarily owns.
func (r *Ring) Share(node string) float64 {
	ni := sort.SearchStrings(r.nodes, node)
	if ni == len(r.nodes) || r.nodes[ni] != node {
		return 0
	}
	var total uint64
	exact := true
	for i, p := range r.points {
		if p.node != int32(ni) {
			continue
		}
		prev := r.points[(i+len(r.points)-1)%len(r.points)].pos
		arc := p.pos - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			return 1
		}
		next := total + arc
		if next < total {
			exact = false // sum wrapped (only possible near a full circle)
		}
		total = next
	}
	if !exact {
		return 1
	}
	return float64(total) / math.Pow(2, 64)
}

// ConfigHash digests the ring configuration (membership and vnode count);
// two nodes whose hashes differ are not in the same cluster and must not
// sync. The cluster layer folds replication in on top.
func (r *Ring) ConfigHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ring1 vnodes=%d\n", r.vnodes)
	for _, n := range r.nodes {
		h.Write([]byte(n))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
