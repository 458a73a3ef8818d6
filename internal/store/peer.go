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
// from its stored inputs, a fetched record proves its own integrity:
// VerifyPeerRecord re-hashes and re-derives everything, so a peer (or a
// man-in-the-middle) cannot make a node accept bytes under a key they do not
// hash to. That property is what makes cross-node replication trustless.

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
// convention matches cluster.Range, so ring ownership arcs filter the
// inventory directly.
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
// caller's representative graph and requested partition — the peer-fetch
// serving path, where the engine needs the result expressed in its own live
// edge IDs. All of decodeShortcut's verification applies: structural
// validation plus re-derivation of key from the stored inputs.
func DecodeShortcutPayload(payload []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {
	return decodeShortcut(payload, key, newEdgePerm(g), g, parts, nil)
}

// DecodePeerShortcut reconstructs a fetched record's shortcut against the
// caller's representative graph: against parts when the caller has the
// requested partition (DecodeShortcutPayload), else against the record's
// own partition payload, with every check GetShortcut runs on a key-only
// read — the partition payload must hash to the fingerprint the shortcut
// payload names and decode to connected parts of g, and the key is
// re-derived over its bytes.
func DecodePeerShortcut(rec PeerRecord, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, error) {
	return decodeRecord(rec.ShortcutPayload, rec.PartitionPayload, rec.Key, newEdgePerm(g), g, parts)
}

// VerifyPeerRecord fully verifies a fetched record against its claimed
// fingerprints: the graph payload must hash to GraphFP, the partition
// payload to PartitionFP (and decode to connected parts of that graph), the
// shortcut payload must reference exactly those dependencies, validate
// structurally, and re-derive Key from its stored (graph, partition,
// options). The graph payload is held to DecodeGraphPayload's size limits.
// On success it returns the decoded objects; nothing about the record was
// taken on trust.
func VerifyPeerRecord(rec PeerRecord) (*graph.Graph, *partition.Partition, *shortcut.Result, time.Duration, error) {
	g, err := decodeGraph(rec.GraphPayload, rec.GraphFP, true)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	parts, err := decodePartition(rec.PartitionPayload, rec.PartitionFP, g)
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
	res, bt, err := decodeShortcut(rec.ShortcutPayload, rec.Key, newEdgePerm(g), g, parts, rec.PartitionPayload[1:])
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return g, parts, res, bt, nil
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
// actually written — false means a record for the key already existed and
// nothing was written. The verify-then-write order plus writeMu makes the
// import atomic with respect to a concurrent DeleteGraph: a record can
// never be resurrected under a delete that happened first.
func (c *kvCore) ImportShortcut(rec PeerRecord) (*graph.Graph, bool, error) {
	g, _, _, _, err := VerifyPeerRecord(rec)
	if err != nil {
		return nil, false, err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindShortcut, rec.Key) {
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
