package store

import (
	"fmt"
	"sort"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// Peer exchange surface: what internal/cluster moves between nodes. The unit
// of replication is the PeerRecord — a shortcut payload together with the
// graph and partition payloads it depends on, all in the exact canonical
// encodings the store already persists. Because graph and partition payloads
// hash to their own record keys and a shortcut payload re-derives its key
// from its stored inputs, VerifyPeerRecord re-hashes and re-derives them,
// so a peer (or a man-in-the-middle) cannot make a node accept graph or
// partition bytes under a key they do not hash to, nor a shortcut under
// another (graph, partition, options). The key does not cover the H sets:
// another tree-restricted shortcut under the same key verifies too
// (DESIGN.md §9).

// PeerRecord is one shortcut and its dependency closure, as raw store
// payloads. The fingerprints are the claimed record keys; nothing is trusted
// until VerifyPeerRecord (or ImportShortcut, which calls it) has re-derived
// them from the payload bytes.
type PeerRecord struct {
	Key         service.Fingerprint
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint

	GraphPayload     []byte
	PartitionPayload []byte
	ShortcutPayload  []byte
}

// InventoryEntry is one live shortcut record in an inventory listing: the
// key plus the dependency fingerprints, enough for a replica to decide
// whether it should hold the record without fetching any payload.
type InventoryEntry struct {
	Key         service.Fingerprint
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint
}

// inRange reports whether key lies on the arc (lo, hi] of the fingerprint
// circle, wrapping when lo >= hi; lo == hi means the full circle. The
// convention matches the ring's (a key belongs to the first point at or
// after it), so an arc between two ring points filters the inventory
// directly.
func inRange(key, lo, hi uint64) bool {
	switch {
	case lo == hi:
		return true
	case lo < hi:
		return key > lo && key <= hi
	default:
		return key > lo || key <= hi
	}
}

// EncodeGraphPayload renders the graph record payload for g, byte-identical
// to what PutGraph persists (so a pushed graph deduplicates on the peer).
func EncodeGraphPayload(g *graph.Graph) []byte { return encodeGraph(g) }

// DecodeGraphPayload reconstructs a graph from a record payload that
// arrived from the network (binary ingest, a peer push or fetch),
// verifying that the payload hashes to fp. A header claiming more than
// graph.MaxNodes nodes or graph.MaxEdges edges is refused, before the hash
// and the length check, with an error wrapping graph.ErrTooLarge.
func DecodeGraphPayload(payload []byte, fp service.Fingerprint) (*graph.Graph, error) {
	return decodeGraph(payload, fp, true)
}

// DecodeShortcutPayload reconstructs a shortcut record payload against the
// caller's representative graph, which must be canonical, and requested
// partition. All of the store read's verification applies: the payload
// must be of this build's version, the result is restricted to g's BFS
// tree, it must validate structurally, and the stored inputs must
// re-derive key.
func DecodeShortcutPayload(payload []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {
	return decodeShortcut(payload, key, g, parts)
}

// DecodePeerShortcut reconstructs a fetched record's shortcut against the
// caller's representative graph: against parts when the caller has the
// requested partition (DecodeShortcutPayload), else against the record's
// own partition payload in the key-only read GetShortcut runs — the
// partition payload must hash to the fingerprint the shortcut payload
// names and decode to connected parts of g, and the key is re-derived over
// the partition it decodes to.
func DecodePeerShortcut(rec PeerRecord, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, error) {
	return decodeStored(rec.ShortcutPayload, rec.PartitionPayload, rec.Key, g, parts)
}

// VerifyPeerRecord fully verifies a fetched record against its claimed
// fingerprints: the graph payload must hash to GraphFP, the shortcut
// payload must reference exactly GraphFP and PartitionFP, the partition
// payload must hash to PartitionFP and decode to connected parts of that
// graph, and the shortcut must validate structurally and re-derive Key
// from its stored (graph, partition, options), in the key-only read. The
// graph payload is held to DecodeGraphPayload's size limits. On success it
// returns the decoded objects, the partition the record's own. The H sets
// are checked only structurally; the key does not cover them.
func VerifyPeerRecord(rec PeerRecord) (*graph.Graph, *partition.Partition, *shortcut.Result, time.Duration, error) {
	g, err := decodeGraph(rec.GraphPayload, rec.GraphFP, true)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	meta, err := parseShortcutMeta(rec.ShortcutPayload)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if meta.graphFP != rec.GraphFP || meta.partFP != rec.PartitionFP {
		return nil, nil, nil, 0, fmt.Errorf(
			"store: shortcut %s payload references (%s, %s), record claims (%s, %s)",
			rec.Key, meta.graphFP, meta.partFP, rec.GraphFP, rec.PartitionFP)
	}
	res, bt, err := decodeRecord(rec.ShortcutPayload, rec.PartitionPayload, rec.Key, g)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return g, res.Shortcut.Parts, res, bt, nil
}

// HasShortcut reports whether a live shortcut record exists for key.
func (c *kvCore) HasShortcut(key service.Fingerprint) bool { return c.has(kindShortcut, key) }

// GraphKnown reports whether a live graph record exists for fp.
func (c *kvCore) GraphKnown(fp service.Fingerprint) bool { return c.has(kindGraph, fp) }

// GraphPayload returns the raw graph record payload for fp (version byte +
// canonical encoding), suitable for shipping to a peer.
func (c *kvCore) GraphPayload(fp service.Fingerprint) ([]byte, bool, error) {
	return c.payloadOf(kindGraph, fp)
}

// ShortcutRecord assembles the PeerRecord for key: the shortcut payload and
// the graph and partition payloads it references. ok is false when no live
// shortcut record exists; a live shortcut whose dependencies are missing is
// an integrity error, not a miss. All three payloads are read under one
// shared lock, so a concurrent DeleteGraph yields the whole record or a
// miss, never a shortcut whose graph vanished mid-read.
func (c *kvCore) ShortcutRecord(key service.Fingerprint) (PeerRecord, bool, error) {
	rec := PeerRecord{Key: key}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ik := indexKey{kind: kindShortcut, key: key}
	meta, ok := c.index[ik]
	if !ok {
		return rec, false, nil
	}
	rec.GraphFP, rec.PartitionFP = meta.graphFP, meta.partFP
	var err error
	if rec.ShortcutPayload, err = c.ps.read(ik, meta); err != nil {
		return rec, false, err
	}
	if rec.GraphPayload, ok, err = c.lookupLocked(kindGraph, meta.graphFP); err != nil {
		return rec, false, err
	} else if !ok {
		return rec, false, fmt.Errorf("store: shortcut %s references missing graph %s", key, meta.graphFP)
	}
	if rec.PartitionPayload, ok, err = c.lookupLocked(kindPartition, meta.partFP); err != nil {
		return rec, false, err
	} else if !ok {
		return rec, false, fmt.Errorf("store: shortcut %s references missing partition %s", key, meta.partFP)
	}
	return rec, true, nil
}

// ShortcutInventory lists the live shortcut records whose keys fall on the
// arc (lo, hi] (wrapping; lo == hi lists everything), sorted by key. It
// reads only the index — no payloads — so a full-inventory scan during an
// anti-entropy round is cheap even on a large store.
func (c *kvCore) ShortcutInventory(lo, hi uint64) []InventoryEntry {
	c.mu.RLock()
	out := make([]InventoryEntry, 0, 64)
	for ik, meta := range c.index {
		if ik.kind == kindShortcut && inRange(uint64(ik.key), lo, hi) {
			out = append(out, InventoryEntry{Key: ik.key, GraphFP: meta.graphFP, PartitionFP: meta.partFP})
		}
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// GraphFingerprints lists the live graph record keys, sorted.
func (c *kvCore) GraphFingerprints() []service.Fingerprint {
	entries := c.entries(kindGraph)
	out := make([]service.Fingerprint, len(entries))
	for i, e := range entries {
		out[i] = e.ik.key
	}
	return out
}

// ImportShortcut verifies rec end to end and durably installs the records a
// node is missing: the graph and partition payloads are written only if
// absent, then the shortcut record. It returns the decoded graph (so the
// caller can register it with a serving engine) and whether the shortcut was
// actually written — false means a record for the key that the key-only
// read serves already existed and nothing was written; any other is
// replaced, and the partition record is written whenever it is not live.
// The verify-then-write order plus writeMu makes the import atomic with
// respect to a concurrent DeleteGraph: a record can never be resurrected
// under a delete that happened first.
func (c *kvCore) ImportShortcut(rec PeerRecord) (*graph.Graph, bool, error) {
	g, _, _, _, err := VerifyPeerRecord(rec)
	if err != nil {
		return nil, false, err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.holdsShortcut(rec.Key, g) {
		return g, false, nil
	}
	if !c.has(kindGraph, rec.GraphFP) {
		if err := c.putRecord(kindGraph, rec.GraphFP, rec.GraphPayload); err != nil {
			return g, false, err
		}
	}
	if !c.has(kindPartition, rec.PartitionFP) {
		if err := c.putRecord(kindPartition, rec.PartitionFP, rec.PartitionPayload); err != nil {
			return g, false, err
		}
	}
	if err := c.putRecord(kindShortcut, rec.Key, rec.ShortcutPayload); err != nil {
		return g, false, err
	}
	return g, true, nil
}
