package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// kvCore is the store's record index: the live-record map keyed by
// (kind, fingerprint), the graph → dependent-shortcut reverse index that
// tombstones walk, and every record method, layered over a payloadStore
// that holds the bytes. The segment store (Store) puts the append-only log
// underneath; the conformance suite also runs it over a test-only object
// directory (objdir_test.go).
//
// Locking: writeMu serializes mutations and is held across payload writes
// and fsyncs. mu guards the index and the payload store's in-memory tables
// (the log's segment table) and is held only for short critical sections,
// never across a sync, so reads are not stalled behind persistence. A read
// takes mu.RLock once for the index lookup and the payload read together,
// so it never straddles a delete or a GC swap. Lock order: writeMu before
// mu.
type kvCore struct {
	ps payloadStore

	writeMu sync.Mutex

	mu      sync.RWMutex
	closed  bool
	index   map[indexKey]kvMeta
	byGraph map[service.Fingerprint]map[service.Fingerprint]struct{} // graphFP -> shortcut keys
	live    OpenStats                                                // record counts by kind, kept current, and StaleSkipped
}

type indexKey struct {
	kind byte
	key  service.Fingerprint
}

// kvMeta is the index entry for one live record. The payload store fills
// in the location: on the log, the segment, the frame offset, and the full
// frame size.
type kvMeta struct {
	seg     int
	off     int64
	size    int64
	graphFP service.Fingerprint // shortcut records only
	partFP  service.Fingerprint // shortcut records only
}

// payloadStore is where a kvCore keeps record payloads.
type payloadStore interface {
	// put stores one record — or, for kindTombstone, durably records a
	// graph delete — and returns its location (seg, off, size). frame is
	// the record's log frame: frameHdrSize bytes put may fill in with the
	// header, then the payload. put keeps no reference to frame, so the
	// caller may reuse it. The caller holds writeMu but not mu; put takes
	// mu itself for any in-memory change. After nil the record survives a
	// crash (on a durable store); after an error it is not indexed, though
	// bytes a failed fsync left behind may replay at the next Open.
	put(kind byte, key service.Fingerprint, frame []byte) (kvMeta, error)
	// read returns the payload of the live record ik located at meta. The
	// slice may alias store memory; callers treat it as read-only. The
	// caller holds mu.
	read(ik indexKey, meta kvMeta) ([]byte, error)
	// check re-verifies a record's stored bytes beyond what read verifies
	// (the log's frame checksum, which mapped reads skip). The caller
	// holds mu.
	check(meta kvMeta) error
	// stats fills in the footprint and repair fields of st. The caller
	// holds mu.
	stats(st *OpenStats)
	// close releases the store. The caller holds writeMu and mu.
	close() error
}

// entry is one index entry, for sorted snapshots.
type entry struct {
	ik   indexKey
	meta kvMeta
}

func (c *kvCore) init(ps payloadStore) {
	c.ps = ps
	c.index = make(map[indexKey]kvMeta)
	c.byGraph = make(map[service.Fingerprint]map[service.Fingerprint]struct{})
}

var errClosed = errors.New("store: closed")

// countLocked adjusts the live count of kind by d. Caller holds mu.
func (c *kvCore) countLocked(kind byte, d int) {
	switch kind {
	case kindGraph:
		c.live.Graphs += d
	case kindPartition:
		c.live.Partitions += d
	case kindShortcut:
		c.live.Shortcuts += d
	case kindJob:
		c.live.Jobs += d
	}
}

// indexPutLocked installs a live record, newest-wins. Caller holds mu.
func (c *kvCore) indexPutLocked(kind byte, key service.Fingerprint, meta kvMeta) {
	ik := indexKey{kind: kind, key: key}
	if old, ok := c.index[ik]; !ok {
		c.countLocked(kind, 1)
	} else if kind == kindShortcut {
		c.unlinkLocked(old.graphFP, key)
	}
	c.index[ik] = meta
	if kind == kindShortcut {
		deps := c.byGraph[meta.graphFP]
		if deps == nil {
			deps = make(map[service.Fingerprint]struct{})
			c.byGraph[meta.graphFP] = deps
		}
		deps[key] = struct{}{}
	}
}

func (c *kvCore) unlinkLocked(graphFP, key service.Fingerprint) {
	if deps := c.byGraph[graphFP]; deps != nil {
		delete(deps, key)
		if len(deps) == 0 {
			delete(c.byGraph, graphFP)
		}
	}
}

// dropGraphLocked removes a graph record and every shortcut built on it
// from the index. It is the one implementation of tombstone semantics:
// DeleteGraph calls it after the payload store recorded the delete, and
// log replay calls it for every tombstone frame. Caller holds mu.
func (c *kvCore) dropGraphLocked(fp service.Fingerprint) {
	c.removeLocked(indexKey{kind: kindGraph, key: fp})
	for key := range c.byGraph[fp] {
		c.removeLocked(indexKey{kind: kindShortcut, key: key})
	}
	delete(c.byGraph, fp)
}

func (c *kvCore) removeLocked(ik indexKey) {
	if _, ok := c.index[ik]; ok {
		delete(c.index, ik)
		c.countLocked(ik.kind, -1)
	}
}

// applyLocked installs one record read back from durable storage: the
// same index insert a put performs or, for a tombstone, the same drop
// DeleteGraph performs. It reports false for a record it cannot install
// (unknown kind, undecodable shortcut header), and skips a stale payload
// (stalePayload), counting it in StaleSkipped. Caller holds mu.
func (c *kvCore) applyLocked(kind byte, key service.Fingerprint, payload []byte, meta kvMeta) bool {
	if stalePayload(kind, payload) {
		c.live.StaleSkipped++
		return true
	}
	switch kind {
	case kindTombstone:
		c.dropGraphLocked(key)
	case kindShortcut:
		sm, err := parseShortcutMeta(payload)
		if err != nil {
			return false
		}
		meta.graphFP, meta.partFP = sm.graphFP, sm.partFP
		c.indexPutLocked(kind, key, meta)
	case kindGraph, kindPartition, kindJob:
		c.indexPutLocked(kind, key, meta)
	default:
		return false
	}
	return true
}

// skipOrphansLocked drops every shortcut whose partition record is not
// live (stale, or lost to a checksum failure) from the index, counting it
// in StaleSkipped: no key-only read could serve it, so its key reads as a
// miss that the rebuild heals. Open runs it after replay. Caller holds mu.
func (c *kvCore) skipOrphansLocked() {
	for ik, meta := range c.index {
		if _, ok := c.index[indexKey{kind: kindPartition, key: meta.partFP}]; ik.kind == kindShortcut && !ok {
			c.removeLocked(ik)
			c.unlinkLocked(meta.graphFP, ik.key)
			c.live.StaleSkipped++
		}
	}
}

// entriesLocked snapshots the index entries of one kind (0: every kind),
// sorted by kind then key — the order Records lists, Verify checks, and
// GC lays records out in. Caller holds mu.
func (c *kvCore) entriesLocked(kind byte) []entry {
	out := make([]entry, 0, len(c.index))
	for ik, meta := range c.index {
		if kind == 0 || ik.kind == kind {
			out = append(out, entry{ik, meta})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ik.kind != out[j].ik.kind {
			return out[i].ik.kind < out[j].ik.kind
		}
		return out[i].ik.key < out[j].ik.key
	})
	return out
}

func (c *kvCore) entries(kind byte) []entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entriesLocked(kind)
}

// compactionSetLocked returns what a compaction keeps — every live record
// minus partitions no live shortcut references — sorted by kind then key,
// and how many index entries it leaves out. Caller holds mu.
func (c *kvCore) compactionSetLocked() ([]entry, int) {
	wanted := make(map[service.Fingerprint]bool)
	for ik, meta := range c.index {
		if ik.kind == kindShortcut {
			wanted[meta.partFP] = true
		}
	}
	all := c.entriesLocked(0)
	keep := all[:0]
	for _, e := range all {
		if e.ik.kind != kindPartition || wanted[e.ik.key] {
			keep = append(keep, e)
		}
	}
	return keep, len(c.index) - len(keep)
}

// reindexLocked replaces the whole index with entries (after a compaction
// moved every record). Caller holds mu.
func (c *kvCore) reindexLocked(entries []entry) {
	c.index = make(map[indexKey]kvMeta, len(entries))
	c.byGraph = make(map[service.Fingerprint]map[service.Fingerprint]struct{})
	c.live = OpenStats{}
	for _, e := range entries {
		c.indexPutLocked(e.ik.kind, e.ik.key, e.meta)
	}
}

// has reports whether a live record exists. Writers call it under
// writeMu, which keeps the answer current until they release it.
func (c *kvCore) has(kind byte, key service.Fingerprint) bool {
	c.mu.RLock()
	_, ok := c.index[indexKey{kind: kind, key: key}]
	c.mu.RUnlock()
	return ok
}

// putRecord stores one record, its payload copied into a frame of its
// own, and installs it in the index. Caller holds writeMu.
func (c *kvCore) putRecord(kind byte, key service.Fingerprint, payload []byte) error {
	return c.putFrame(kind, key, append(make([]byte, frameHdrSize, frameHdrSize+len(payload)), payload...))
}

// putFrame stores the record whose log frame is frame — frameHdrSize
// bytes for the header, then the payload — and installs it in the index.
// The frame is written as it is and not kept, so a caller may hand in a
// pooled buffer. Caller holds writeMu.
func (c *kvCore) putFrame(kind byte, key service.Fingerprint, frame []byte) error {
	c.mu.RLock()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return errClosed
	}
	var sm shortcutMeta
	if kind == kindShortcut {
		var err error
		if sm, err = parseShortcutMeta(frame[frameHdrSize:]); err != nil {
			return err
		}
	}
	meta, err := c.ps.put(kind, key, frame)
	if err != nil {
		return err
	}
	meta.graphFP, meta.partFP = sm.graphFP, sm.partFP
	c.mu.Lock()
	c.indexPutLocked(kind, key, meta)
	c.mu.Unlock()
	return nil
}

// lookupLocked is the read path's single step: the index lookup and the
// payload read. Caller holds mu.
//
//locshort:hotpath
func (c *kvCore) lookupLocked(kind byte, key service.Fingerprint) ([]byte, bool, error) {
	ik := indexKey{kind: kind, key: key}
	meta, ok := c.index[ik]
	if !ok {
		return nil, false, nil
	}
	payload, err := c.ps.read(ik, meta)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// payloadOf reads a live record's payload under one shared lock.
//
//locshort:hotpath
func (c *kvCore) payloadOf(kind byte, key service.Fingerprint) ([]byte, bool, error) {
	c.mu.RLock()
	payload, ok, err := c.lookupLocked(kind, key)
	c.mu.RUnlock()
	return payload, ok, err
}

// PutGraph persists g under its content fingerprint; known content is a
// cheap no-op. Implements service.Store.
func (c *kvCore) PutGraph(fp service.Fingerprint, g *graph.Graph) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindGraph, fp) {
		return nil
	}
	// Encode straight into the frame: one buffer, not a payload and a copy.
	frame := make([]byte, frameHdrSize, frameHdrSize+graphPayloadLen(g))
	return c.putFrame(kindGraph, fp, appendGraph(frame, g))
}

// EachGraph decodes every live graph record, ascending by fingerprint.
// Implements service.Store.
func (c *kvCore) EachGraph(fn func(fp service.Fingerprint, g *graph.Graph) error) error {
	for _, e := range c.entries(kindGraph) {
		g, ok, err := c.GetGraph(e.ik.key)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted mid-iteration
		}
		if err := fn(e.ik.key, g); err != nil {
			return err
		}
	}
	return nil
}

// GetGraph decodes the live graph record for fp, if any.
//
//locshort:hotpath
func (c *kvCore) GetGraph(fp service.Fingerprint) (*graph.Graph, bool, error) {
	payload, ok, err := c.payloadOf(kindGraph, fp)
	if err != nil || !ok {
		return nil, false, err
	}
	g, err := decodeGraph(payload, fp, false)
	if err != nil {
		return nil, false, err
	}
	return g, true, nil
}

// PutShortcut persists the partition record (deduplicated) and the shortcut
// record, the partition first, each fsynced on a durable store. Implements
// service.Store. A shortcut whose graph record is no longer live is
// silently dropped: a detached engine persist can race a DeleteGraph, and
// writing the record after the delete would resurrect a shortcut whose
// graph is gone (an orphan that fails Verify). A live record under key is
// kept if the key-only read serves it, else replaced, with the partition
// record whenever that is not live, so a rebuild heals the key. The
// shortcut's graph must be canonical. Both payloads are encoded into one
// pooled buffer, each after room for its frame header, and written from
// it: a persist allocates no payload or frame of its own.
func (c *kvCore) PutShortcut(key, graphFP service.Fingerprint, parts *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) error {

	bp := frameBufs.Get().(*[]byte)
	b, partFP, err := appendShortcut(append((*bp)[:0], frameHdr[:]...), graphFP, opts, res, buildTime)
	defer func() {
		if cap(b) <= maxPooledFrames {
			*bp = b
			frameBufs.Put(bp)
		}
	}()
	if err != nil {
		return fmt.Errorf("store: shortcut %s: %w", key, err)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if !c.has(kindGraph, graphFP) || c.holdsShortcut(key, res.Shortcut.G) {
		return nil
	}
	shortcutEnd := len(b)
	if !c.has(kindPartition, partFP) {
		b = appendPartition(append(b, frameHdr[:]...), parts)
		if err := c.putFrame(kindPartition, partFP, b[shortcutEnd:]); err != nil {
			return err
		}
	}
	return c.putFrame(kindShortcut, key, b[:shortcutEnd])
}

// frameBufs recycles PutShortcut's frame buffers. A buffer grown past
// maxPooledFrames (a record of a graph far larger than the usual) is left
// to the collector.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrames = 1 << 20

// frameHdr is the room a frame leaves for its header.
var frameHdr [frameHdrSize]byte

// GetShortcut loads and reconstructs the shortcut stored under key against
// the live representative g and the requested partition (decodeShortcut),
// or — parts nil — the record's own partition record, read under the same
// lock as the shortcut record and decoded with it in the key-only read
// (decodeRecord). Implements service.Store.
//
//locshort:hotpath
func (c *kvCore) GetShortcut(key service.Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {

	spay, ppay, ok, err := c.shortcutPayloads(key, parts == nil)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	res, bt, err := decodeStored(spay, ppay, key, g, parts)
	if err != nil {
		return nil, 0, false, err
	}
	return res, bt, true, nil
}

// holdsShortcut reports whether the key-only read serves the live record
// under key against g. Writers call it under writeMu, to keep a good
// record and replace one a read refuses or whose partition record is gone.
func (c *kvCore) holdsShortcut(key service.Fingerprint, g *graph.Graph) bool {
	_, _, ok, err := c.GetShortcut(key, g, nil)
	return ok && err == nil
}

// shortcutPayloads reads a live shortcut record's payload and, withPart,
// its partition record's payload, under one shared lock. A shortcut whose
// partition record is missing is an integrity error, not a miss.
func (c *kvCore) shortcutPayloads(key service.Fingerprint, withPart bool) (spay, ppay []byte, ok bool, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ik := indexKey{kind: kindShortcut, key: key}
	meta, ok := c.index[ik]
	if !ok {
		return nil, nil, false, nil
	}
	if spay, err = c.ps.read(ik, meta); err != nil || !withPart {
		return spay, nil, err == nil, err
	}
	if ppay, ok, err = c.lookupLocked(kindPartition, meta.partFP); err != nil {
		return nil, nil, false, err
	} else if !ok {
		return nil, nil, false, fmt.Errorf("store: shortcut %s references missing partition %s", key, meta.partFP)
	}
	return spay, ppay, true, nil
}

// DeleteGraph removes the graph record for fp and every shortcut built on
// it; deleting an absent graph is a no-op. Implements service.Store. The
// delete is made durable first (on the log, one tombstone frame), then the
// index entries drop, so a reader sees the records or a miss, never half a
// delete, and a failed delete leaves everything live.
func (c *kvCore) DeleteGraph(fp service.Fingerprint) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.RLock()
	closed := c.closed
	_, haveGraph := c.index[indexKey{kind: kindGraph, key: fp}]
	haveDeps := len(c.byGraph[fp]) > 0
	c.mu.RUnlock()
	if closed {
		return errClosed
	}
	if !haveGraph && !haveDeps {
		return nil
	}
	if _, err := c.ps.put(kindTombstone, fp, make([]byte, frameHdrSize)); err != nil {
		return err
	}
	c.mu.Lock()
	c.dropGraphLocked(fp)
	c.mu.Unlock()
	return nil
}

// PutJob durably writes (or supersedes) an async job record under its job
// ID. Implements jobs.Store. Unlike the content-addressed kinds the
// payload mutates over a job's lifecycle, so every call writes; the newest
// record wins.
func (c *kvCore) PutJob(id uint64, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.putRecord(kindJob, service.Fingerprint(id), payload)
}

// GetJob returns the live job record payload for id, if any. Implements
// jobs.Store.
//
//locshort:hotpath
func (c *kvCore) GetJob(id uint64) ([]byte, bool, error) {
	return c.payloadOf(kindJob, service.Fingerprint(id))
}

// EachJob calls fn for every live job record, ascending by ID. Implements
// jobs.Store (used by Manager.Recover on warm start).
func (c *kvCore) EachJob(fn func(id uint64, payload []byte) error) error {
	for _, e := range c.entries(kindJob) {
		payload, ok, err := c.payloadOf(kindJob, e.ik.key)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(uint64(e.ik.key), payload); err != nil {
			return err
		}
	}
	return nil
}

// RecordInfo describes one live record for listings.
type RecordInfo struct {
	// Kind is "graph", "partition", "shortcut", or "job".
	Kind string
	Key  service.Fingerprint
	// Segment and Offset locate the record's frame on disk; Bytes is the
	// frame's size.
	Segment int
	Offset  int64
	Bytes   int64
	// GraphFP and PartitionFP are the dependencies of a shortcut record
	// (zero otherwise).
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint
}

func kindName(kind byte) string {
	switch kind {
	case kindGraph:
		return "graph"
	case kindPartition:
		return "partition"
	case kindShortcut:
		return "shortcut"
	case kindJob:
		return "job"
	}
	return fmt.Sprintf("kind(%c)", kind)
}

// Records lists the live records sorted by kind then key.
func (c *kvCore) Records() []RecordInfo {
	entries := c.entries(0)
	out := make([]RecordInfo, len(entries))
	for i, e := range entries {
		out[i] = RecordInfo{
			Kind:        kindName(e.ik.kind),
			Key:         e.ik.key,
			Segment:     e.meta.seg,
			Offset:      e.meta.off,
			Bytes:       e.meta.size,
			GraphFP:     e.meta.graphFP,
			PartitionFP: e.meta.partFP,
		}
	}
	return out
}

// OpenStats reports live record counts, the stored footprint, and what
// Open repaired. It reads under the shared lock and scans nothing: the
// counts are kept current as the index changes.
func (c *kvCore) OpenStats() OpenStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.live
	c.ps.stats(&st)
	return st
}

// Problem is one verification failure.
type Problem struct {
	Kind string
	Key  service.Fingerprint
	Err  error
}

func (p Problem) String() string { return fmt.Sprintf("%s %s: %v", p.Kind, p.Key, p.Err) }

// Verify re-reads and fully decodes every live record: stored-byte checks
// (the log's frame checksums), payload-to-key content hashes, structural
// validation (graph adjacency, partition connectedness, shortcut edge sets
// against their tree), and shortcut key re-derivation from the stored
// inputs. It returns one Problem per failing record; an empty slice means
// the store is clean.
func (c *kvCore) Verify() []Problem {
	var problems []Problem
	bad := func(ik indexKey, err error) {
		problems = append(problems, Problem{Kind: kindName(ik.kind), Key: ik.key, Err: err})
	}
	read := func(ik indexKey) ([]byte, bool, error) {
		c.mu.RLock()
		defer c.mu.RUnlock()
		meta, ok := c.index[ik]
		if !ok {
			return nil, false, nil
		}
		// Mapped reads skip the per-read checksum, so Verify re-checks the
		// stored bytes explicitly — its whole point is catching corruption
		// that happened after the record was indexed.
		if err := c.ps.check(meta); err != nil {
			return nil, true, err
		}
		payload, err := c.ps.read(ik, meta)
		return payload, true, err
	}
	graphs := make(map[service.Fingerprint]*graph.Graph)
	for _, e := range c.entries(0) {
		ik := e.ik
		payload, ok, err := read(ik)
		if err != nil {
			bad(ik, err)
			continue
		}
		if !ok {
			continue // deleted mid-verify
		}
		switch ik.kind {
		case kindGraph:
			g, err := decodeGraph(payload, ik.key, false)
			if err == nil {
				err = g.Validate()
			}
			if err != nil {
				bad(ik, err)
				continue
			}
			graphs[ik.key] = g
		case kindPartition:
			if got, err := partitionKey(payload); err != nil {
				bad(ik, err)
			} else if got != ik.key {
				bad(ik, fmt.Errorf("content hash mismatch"))
			}
		case kindShortcut:
			g, ok := graphs[e.meta.graphFP]
			if !ok {
				bad(ik, fmt.Errorf("references missing graph %s", e.meta.graphFP))
				continue
			}
			ppay, ok, err := c.payloadOf(kindPartition, e.meta.partFP)
			if err != nil {
				bad(ik, err)
				continue
			}
			if !ok {
				bad(ik, fmt.Errorf("references missing partition %s", e.meta.partFP))
				continue
			}
			if _, _, err := decodeRecord(payload, ppay, ik.key, g); err != nil {
				bad(ik, err)
			}
		case kindJob:
			// Job records are not content-addressed (random IDs, mutable
			// state), so verification is structural: the payload decodes
			// and its embedded ID matches the record key.
			rec, err := jobs.DecodeRecord(payload)
			if err != nil {
				bad(ik, err)
			} else if uint64(rec.ID) != uint64(ik.key) {
				bad(ik, fmt.Errorf("record claims job id %s", rec.ID))
			}
		}
	}
	return problems
}

// Close releases the payload store. Writes fail afterwards; on the segment
// store, zero-copy payload slices handed out by reads become invalid, so
// callers drain readers first, which every daemon shutdown path already
// does. Appended records are already durable; Close never loses data.
func (c *kvCore) Close() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.ps.close()
}
