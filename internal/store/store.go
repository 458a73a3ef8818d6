package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"locshort/internal/jobs"
	"locshort/internal/obs"
	"locshort/internal/service"
)

// On-disk layout. A store directory holds numbered append-only segment
// files:
//
//	<dir>/000001.seg
//	<dir>/000002.seg
//	...
//
// Each segment starts with an 8-byte magic ("LSSTOR01") and then a sequence
// of framed records:
//
//	offset  size  field
//	0       1     kind: 'G' graph, 'P' partition, 'S' shortcut,
//	              'J' async job record, 'T' graph tombstone
//	1       8     key (big-endian content fingerprint)
//	9       4     payload length (big-endian)
//	13      4     CRC-32C over kind ‖ key ‖ length ‖ payload
//	17      n     payload (see encode.go)
//
// Records are appended to the highest-numbered segment and fsynced (unless
// Options.NoSync); a segment past Options.SegmentBytes is retired and a new
// one started. The newest record for a (kind, key) pair wins on replay, and
// a tombstone hides the graph record and every shortcut record whose
// payload references that graph fingerprint. Compaction (GC) rewrites the
// live records into a fresh segment via write-tmp-then-rename and deletes
// the old files afterwards, so a crash at any point leaves either the old
// set, both (replayed old-to-new to the same index), or the new set.
//
// Crash tolerance on open: a record that extends past the end of the last
// segment — the signature of a crash mid-append — is truncated away, and a
// record whose checksum does not match its frame is skipped (the frame
// length still locates the next record). Both are counted in OpenStats,
// as are the stale records Open leaves out of the index.
const (
	segMagic     = "LSSTOR01"
	frameHdrSize = 17
	gcTmpName    = "gc.seg.tmp"

	kindGraph     = 'G'
	kindPartition = 'P'
	kindShortcut  = 'S'
	kindJob       = 'J'
	kindTombstone = 'T'
)

// maxRecordBytes bounds a single record frame; anything larger is treated
// as corruption rather than allocated.
const maxRecordBytes = 1 << 31

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Store. The zero value selects production defaults.
type Options struct {
	// SegmentBytes retires the active segment once it grows past this
	// size (default 64 MiB).
	SegmentBytes int64
	// NoSync skips the fsync after each append. Throughput for
	// durability: a crash can lose recently acknowledged records, but
	// never corrupts what an earlier sync made durable. Tests and bulk
	// imports use it; daemons should not.
	NoSync bool
	// NoMmap disables memory-mapping segments, forcing every read
	// through the portable pread path (fresh buffer plus a per-read
	// checksum). The default maps every segment read-only from the moment
	// it becomes active, where the platform supports it, and serves
	// payloads as subslices of the mapping — zero-copy. A read from a
	// sealed segment relies on the checksum verification that already
	// happened when each record entered the index: replay for records
	// found at Open, the write path (we computed the CRC) for records
	// this process appended. A read from the active segment still checks
	// the frame's checksum, in place, allocating nothing.
	NoMmap bool
	// Obs, when non-nil, registers the store's metric families:
	// append/fsync latency histograms, per-kind append and segment
	// rotation counters, and func-backed gauges over OpenStats (segments,
	// bytes, live records by kind) read at scrape time.
	Obs *obs.Registry
	// FS substitutes the filesystem every file operation goes through
	// (default: the real one). The conformance suite injects
	// faults — short writes, failed fsyncs, failed renames, crash
	// schedules — through this seam. A non-os FS disables mmap (every
	// segment stays on the pread path, so reads remain observable).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// OpenStats reports what Open found and repaired.
type OpenStats struct {
	// Segments is the number of segment files.
	Segments int
	// Graphs, Partitions, Shortcuts, Jobs count live records by kind.
	Graphs, Partitions, Shortcuts, Jobs int
	// Bytes is the total size of all segment files.
	Bytes int64
	// MappedSegments counts segments currently served zero-copy from a
	// read-only memory mapping, the active segment included (zero with
	// Options.NoMmap, an FS shim, or on platforms without mmap).
	MappedSegments int
	// CorruptSkipped counts records dropped for checksum mismatch.
	CorruptSkipped int
	// StaleSkipped counts records Open left out of the index (see Open).
	StaleSkipped int
	// TruncatedBytes counts bytes cut off a torn segment tail.
	TruncatedBytes int64
	// TombstonesApplied counts graph tombstones replayed.
	TombstonesApplied int
}

// Store is a content-addressed, append-only snapshot store for graphs,
// partitions, and built shortcuts, durably keyed by the service layer's
// 64-bit fingerprints: the record index (kvCore) over the segment log. It
// is the engine's service.Store, the job manager's jobs.Store, the peer
// surface internal/cluster replicates through (peer.go), and the admin
// surface locshortctl reads. A directory must be owned by one Store at a
// time (run locshortctl against a stopped daemon or a copied directory).
//
// Contract highlights, enforced by the conformance suite
// (conformance_suite_test.go):
//
//   - Content addressing: graph and partition payloads are exactly the
//     canonical encodings their fingerprints hash; a payload that does not
//     hash to its key is never written (PutGraphPayload, ImportShortcut)
//     and never served (every Get decodes with verification).
//   - Idempotent re-puts: re-putting known content is a cheap no-op; live
//     record counts do not grow.
//   - Tombstone deletes: DeleteGraph removes the graph record and every
//     shortcut built on it, and the delete survives reopen; deleting an
//     absent graph is a no-op.
//   - No resurrection: PutShortcut for a graph that is no longer live is
//     silently dropped (a detached engine persist can race DeleteGraph).
//   - Iteration order: EachGraph ascends by fingerprint, EachJob by job
//     ID, so warm starts are deterministic.
//   - Verification: a record that exists but fails validation surfaces as
//     an error (or a Verify problem), never as a wrong answer.
//   - Concurrency: every method is safe for concurrent use; reads are not
//     stalled behind other requests' persistence.
type Store struct {
	kvCore
	log *segLog
}

var (
	_ service.Store = (*Store)(nil)
	_ jobs.Store    = (*Store)(nil)
)

// segLog is the segment store's payloadStore: framed, checksummed appends
// with fsync and rotation, replay with torn-tail repair, segment
// mappings, and compaction. Everything in it that readers touch (the
// segment table, sizes, mappings) changes only under writeMu and the
// owning kvCore's mu together, so a reader holding mu.RLock sees a stable
// table and the writer needs no lock to read it.
type segLog struct {
	dir  string
	opts Options
	fs   FS
	mu   *sync.RWMutex // the owning kvCore's mu

	segs   map[int]*segment
	active *segment
	// retired holds mappings of segments GC deleted. Zero-copy payload
	// slices handed out before the GC may still alias them, so they are
	// munmapped only at Close — address space is cheap, dangling reads
	// are not.
	retired [][]byte
	// Repair counters since Open (reset by GC).
	corrupt, tombstones int
	truncated           int64

	// metrics is nil unless Options.Obs was set.
	metrics *storeMetrics
}

type segment struct {
	seq  int
	f    File
	size int64
	// data is the segment's read-only memory mapping, made when the
	// segment became active (or, for a segment sealed before Open, at
	// Open). An active segment's window is max(size, SegmentBytes) at
	// that moment, so appends land inside it and need no new mapping; a
	// frame that runs past the window is read by pread. nil keeps the
	// whole segment on the pread path (Options.NoMmap, an FS shim, mmap
	// failure, or an unsupported platform).
	data []byte
}

// Open opens (creating if necessary) the store rooted at dir, replaying
// every segment into the index and repairing a torn tail. A partition or
// shortcut payload of another version, then every shortcut whose
// partition record is not live, stay out of the index as stale, so their
// keys read as misses that a rebuild heals.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{}
	l := &segLog{dir: dir, opts: opts, fs: opts.FS, mu: &s.mu, segs: make(map[int]*segment)}
	s.log = l
	s.init(l)
	// A gc.seg.tmp left by a GC that crashed before its rename is dead
	// weight — replay ignores the name, so without this sweep it would
	// leak disk forever.
	l.fs.Remove(filepath.Join(dir, gcTmpName))
	seqs, err := listSegments(l.fs, dir)
	if err != nil {
		return nil, err
	}
	// Open is single-threaded: nothing else can hold mu yet.
	for _, seq := range seqs {
		if err := l.replay(seq, s.applyLocked); err != nil {
			l.close()
			return nil, err
		}
	}
	s.skipOrphansLocked()
	if len(seqs) > 0 {
		last := l.segs[seqs[len(seqs)-1]]
		if last.size < opts.SegmentBytes {
			l.active = last
		}
	}
	// Map the segments now that replay has repaired torn tails: a sealed
	// one at its repaired size, the reopened tail with room to grow.
	for _, seg := range l.segs {
		if seg == l.active {
			l.mapActive(seg)
		} else {
			l.mapSegment(seg, seg.size)
		}
	}
	if l.active == nil {
		next := 1
		if len(seqs) > 0 {
			next = seqs[len(seqs)-1] + 1
		}
		if err := l.startSegment(next); err != nil {
			l.close()
			return nil, err
		}
	}
	if opts.Obs != nil {
		l.metrics = newStoreMetrics(opts.Obs, s)
	}
	return s, nil
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(fs FS, dir string) ([]int, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "%06d.seg", &seq); err == nil &&
			e.Name() == segName(seq) && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

func segName(seq int) string { return fmt.Sprintf("%06d.seg", seq) }

func (l *segLog) segPath(seq int) string { return filepath.Join(l.dir, segName(seq)) }

// startSegment creates a fresh active segment with the file header.
// Caller holds writeMu (or is Open); the table change takes mu itself.
func (l *segLog) startSegment(seq int) error {
	f, err := l.fs.OpenFile(l.segPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// On any failure past creation the file must be removed: it was
	// created with O_EXCL, so leaving a husk behind would wedge every
	// rotation retry with EEXIST even after the underlying fault clears
	// (a real bug the fault-injection suite shook out).
	fail := func(err error) error {
		_ = f.Close() // best-effort: the original error must propagate
		l.fs.Remove(l.segPath(seq))
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return fail(err)
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		l.fs.SyncDir(l.dir)
	}
	seg := &segment{seq: seq, f: f, size: int64(len(segMagic))}
	// Readers cannot see the segment yet, so the mapping needs no lock.
	// The outgoing active segment keeps the window it was mapped with:
	// its frames are all inside it but the last one, at most.
	l.mapActive(seg)
	l.mu.Lock()
	l.segs[seq] = seg
	l.active = seg
	l.mu.Unlock()
	return nil
}

// mapActive maps a segment that is, or is about to become, the active
// one, with a window of max(size, SegmentBytes): the appends it takes
// until rotation fall inside the mapping, all but possibly the last.
// Pages past the end of the file are never read, since a read touches
// only committed frames.
func (l *segLog) mapActive(seg *segment) {
	l.mapSegment(seg, max(seg.size, l.opts.SegmentBytes))
}

// mapSegment attaches a read-only memory mapping of the segment's first
// window bytes. Failure — including an unsupported platform, or a
// segment file that is not a plain *os.File because an FS shim is
// injected — is not an error: the segment just stays on the pread
// fallback. The caller is Open, or holds writeMu for a segment readers
// cannot see yet.
func (l *segLog) mapSegment(seg *segment, window int64) {
	if l.opts.NoMmap || seg.data != nil || window <= 0 {
		return
	}
	osf, ok := seg.f.(*os.File)
	if !ok {
		return
	}
	if data, err := mmapFile(osf, window); err == nil {
		seg.data = data
	}
}

// replay reads one segment, handing every checksum-valid record to apply
// (which reports false for a record it cannot install), truncating a torn
// tail and skipping corrupt frames.
func (l *segLog) replay(seq int, apply func(kind byte, key service.Fingerprint, payload []byte, meta kvMeta) bool) error {
	f, err := l.fs.OpenFile(l.segPath(seq), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	seg := &segment{seq: seq, f: f}
	l.segs[seq] = seg
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		// Crash between segment creation and header write: finish the job.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			return err
		}
		seg.size = int64(len(segMagic))
		return nil
	}
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != segMagic {
		return fmt.Errorf("store: %s: not a segment file (bad magic)", segName(seq))
	}
	off := int64(len(segMagic))
	frame := make([]byte, frameHdrSize)
	for off+frameHdrSize <= size {
		if _, err := f.ReadAt(frame, off); err != nil {
			return err
		}
		total := frameHdrSize + int64(binary.BigEndian.Uint32(frame[9:]))
		if total > maxRecordBytes || off+total > size {
			// A frame that runs past the end of the file is a torn append;
			// an absurd length means the header itself is torn. Either
			// way nothing after this point is trustworthy.
			break
		}
		payload := make([]byte, total-frameHdrSize)
		if _, err := f.ReadAt(payload, off+frameHdrSize); err != nil {
			return err
		}
		kind := frame[0]
		key := service.Fingerprint(binary.BigEndian.Uint64(frame[1:]))
		if frameCRC(frame[:13], payload) != binary.BigEndian.Uint32(frame[13:]) ||
			!apply(kind, key, payload, kvMeta{seg: seq, off: off, size: total}) {
			l.corrupt++
		} else if kind == kindTombstone {
			l.tombstones++
		}
		off += total
	}
	if off < size {
		l.truncated += size - off
		if err := f.Truncate(off); err != nil {
			return err
		}
	}
	seg.size = off
	return nil
}

// frameCRC is the CRC-32C over a frame's kind, key, and length (hdr) and
// its payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr, crcTable), crcTable, payload)
}

// put fills in frame's header and durably writes the frame, one record,
// to the active segment, rotating first if the segment is full. Caller
// holds writeMu; mu is taken only to publish the new segment size, never
// across the write or fsync.
func (l *segLog) put(kind byte, key service.Fingerprint, frame []byte) (kvMeta, error) {
	var appendStart time.Time
	if l.metrics != nil {
		appendStart = time.Now()
	}
	seg := l.active
	if seg.size >= l.opts.SegmentBytes {
		if err := l.startSegment(seg.seq + 1); err != nil {
			return kvMeta{}, err
		}
		if l.metrics != nil {
			l.metrics.rotations.Inc()
		}
		seg = l.active
	}
	payload := frame[frameHdrSize:]
	frame[0] = kind
	binary.BigEndian.PutUint64(frame[1:], uint64(key))
	binary.BigEndian.PutUint32(frame[9:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[13:], frameCRC(frame[:13], payload))
	if _, err := seg.f.WriteAt(frame, seg.size); err != nil {
		return kvMeta{}, err
	}
	if !l.opts.NoSync {
		var syncStart time.Time
		if l.metrics != nil {
			syncStart = time.Now()
		}
		if err := seg.f.Sync(); err != nil {
			return kvMeta{}, err
		}
		if l.metrics != nil {
			l.metrics.fsyncSeconds.Observe(time.Since(syncStart))
		}
	}
	meta := kvMeta{seg: seg.seq, off: seg.size, size: int64(len(frame))}
	l.mu.Lock()
	seg.size += int64(len(frame))
	l.mu.Unlock()
	if l.metrics != nil {
		l.metrics.appendSeconds.Observe(time.Since(appendStart))
		if c, ok := l.metrics.appends[kind]; ok {
			c.Inc()
		}
	}
	return meta, nil
}

// read fetches a live record's payload. Inside a segment's mapping the
// returned slice aliases the read-only mapping — zero-copy — and the
// mapping stays valid until Close even across a GC (see retired). On a
// sealed segment there is no per-read checksum: the frame was
// CRC-verified when the record entered the index (replay at Open, or the
// write path for records this process appended). A frame of the active
// segment is checked in place on every read, and the pread fallback
// reads a fresh buffer and checks it on every read.
//
//locshort:hotpath
func (l *segLog) read(_ indexKey, meta kvMeta) ([]byte, error) {
	frame, sealed, err := l.frameAt(meta)
	if err == nil && !sealed {
		err = checkFrame(frame)
	}
	if err != nil {
		return nil, err
	}
	return frame[frameHdrSize:], nil
}

// frameAt returns the record frame at meta: a subslice of the mapping when
// the frame lies inside it, else a fresh pread buffer. sealed reports a
// mapped frame of a segment no append touches any more. Caller holds mu
// or writeMu.
//
//locshort:hotpath
func (l *segLog) frameAt(meta kvMeta) (frame []byte, sealed bool, err error) {
	seg, ok := l.segs[meta.seg]
	if !ok {
		return nil, false, fmt.Errorf("store: segment %d vanished", meta.seg) //locshort:alloc-ok corruption path
	}
	end := meta.off + meta.size
	if seg.data != nil && end <= int64(len(seg.data)) {
		// Three-index form so an append by a careless caller reallocates
		// instead of scribbling on the read-only mapping.
		return seg.data[meta.off:end:end], seg != l.active, nil
	}
	frame = make([]byte, meta.size)
	if _, err := seg.f.ReadAt(frame, meta.off); err != nil {
		return nil, false, err
	}
	return frame, false, nil
}

// check re-verifies a live record's frame checksum, through the mapping
// when one exists (the MAP_SHARED mapping observes the file's current
// bytes, so external corruption is visible through it).
func (l *segLog) check(meta kvMeta) error {
	frame, _, err := l.frameAt(meta)
	if err != nil {
		return err
	}
	return checkFrame(frame)
}

func checkFrame(frame []byte) error {
	if frameCRC(frame[:13], frame[frameHdrSize:]) != binary.BigEndian.Uint32(frame[13:]) {
		return fmt.Errorf("store: record %s/%c: checksum mismatch",
			service.Fingerprint(binary.BigEndian.Uint64(frame[1:])), frame[0])
	}
	return nil
}

func (l *segLog) stats(st *OpenStats) {
	st.Segments = len(l.segs)
	for _, seg := range l.segs {
		st.Bytes += seg.size
		if seg.data != nil {
			st.MappedSegments++
		}
	}
	st.CorruptSkipped, st.TruncatedBytes, st.TombstonesApplied = l.corrupt, l.truncated, l.tombstones
}

// close releases every segment file handle and unmaps every segment
// mapping, including mappings GC retired.
func (l *segLog) close() error {
	var first error
	for _, seg := range l.segs {
		if seg.data != nil {
			munmapFile(seg.data)
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, data := range l.retired {
		munmapFile(data)
	}
	l.retired = nil
	l.segs = make(map[int]*segment)
	l.active = nil
	return first
}

// GCStats reports what a compaction did.
type GCStats struct {
	// LiveRecords and LiveBytes are what the compacted segment holds.
	LiveRecords int
	LiveBytes   int64
	// DroppedRecords counts live index entries not carried over
	// (partitions no live shortcut references). Dead on-disk records —
	// superseded duplicates, tombstoned graphs and shortcuts, the
	// tombstones themselves — were never in the live index; the space
	// they held shows up in ReclaimedBytes.
	DroppedRecords int
	// ReclaimedBytes is the size difference between the old segment set
	// and the compacted one.
	ReclaimedBytes int64
	// Segments is the segment-file count after compaction.
	Segments int
}

// GC compacts the store: every live record — minus partitions no live
// shortcut references — is copied into a fresh segment written to a
// temporary file and atomically renamed into place, then the index and
// segment table swap to it together and the old segments are deleted. A
// crash before the rename leaves the old set; a crash after it leaves old
// and new coexisting, which replays to the identical index (newest record
// wins, and tombstones in old segments apply before the compacted segment
// is replayed). Readers run throughout, except for the brief swap.
func (s *Store) GC() (GCStats, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var st GCStats
	s.mu.RLock()
	closed := s.closed
	keep, dropped := s.compactionSetLocked()
	s.mu.RUnlock()
	if closed {
		return st, errClosed
	}
	l := s.log
	seg, err := l.compact(keep)
	if err != nil {
		return st, err
	}
	oldBytes := int64(0)
	for _, old := range l.segs {
		oldBytes += old.size
	}
	s.mu.Lock()
	old := l.segs
	l.segs = map[int]*segment{seg.seq: seg}
	l.active = seg
	for _, o := range old {
		// Mappings of the deleted segments move to the graveyard instead
		// of being unmapped: readers may still hold zero-copy slices into
		// them, and an unlinked file's mapping stays valid until munmap
		// at Close.
		if o.data != nil {
			l.retired = append(l.retired, o.data)
		}
	}
	l.corrupt, l.truncated, l.tombstones = 0, 0, 0
	s.reindexLocked(keep)
	s.mu.Unlock()
	for seq, o := range old {
		_ = o.f.Close() // best-effort: the compacted segment is already durable
		l.fs.Remove(l.segPath(seq))
	}
	l.fs.SyncDir(l.dir)
	st.LiveRecords = len(keep)
	st.LiveBytes = seg.size
	st.DroppedRecords = dropped
	st.ReclaimedBytes = oldBytes - seg.size
	st.Segments = 1
	return st, nil
}

// compact writes the frames of keep, in order, into a new segment numbered
// past every existing one (via gc.seg.tmp, fsync, rename) and rewrites
// each entry's location to its new frame. Caller holds writeMu, which
// freezes the segment table.
func (l *segLog) compact(keep []entry) (*segment, error) {
	nextSeq := 1
	for seq := range l.segs {
		if seq >= nextSeq {
			nextSeq = seq + 1
		}
	}
	tmpPath := filepath.Join(l.dir, gcTmpName)
	tmp, err := l.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer l.fs.Remove(tmpPath)
	fail := func(err error) (*segment, error) {
		_ = tmp.Close() // best-effort: the original error must propagate
		return nil, err
	}
	if _, err := tmp.Write([]byte(segMagic)); err != nil {
		return fail(err)
	}
	off := int64(len(segMagic))
	for i := range keep {
		m := &keep[i].meta
		frame, _, err := l.frameAt(*m)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(frame); err != nil {
			return fail(err)
		}
		m.seg, m.off = nextSeq, off
		off += m.size
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := l.fs.Rename(tmpPath, l.segPath(nextSeq)); err != nil {
		return fail(err)
	}
	l.fs.SyncDir(l.dir)
	seg := &segment{seq: nextSeq, f: tmp, size: off}
	l.mapActive(seg)
	return seg, nil
}
