package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// Binary wire surface: the accessors and framings the binary HTTP protocol
// is built from. The principle throughout is that canonical record payloads
// move verbatim — the bytes a fingerprint was computed over are the bytes
// on the wire — so the receiving side verifies exactly what the store's
// own decoders already verify.

// ShortcutPayload returns the raw shortcut record payload for key — the
// binary /v1/shortcuts response body. On a mapped segment the slice is
// zero-copy (see segLog.read); treat it as read-only.
//
//locshort:hotpath
func (c *kvCore) ShortcutPayload(key service.Fingerprint) ([]byte, bool, error) {
	return c.payloadOf(kindShortcut, key)
}

// PutGraphPayload persists an already-encoded canonical graph payload
// verbatim under fp — the binary ingest path, which has the exact bytes in
// hand and must not pay a decode→re-encode round trip. The payload is
// verified against fp before anything is written (the store stays
// self-verifying no matter who assembled the bytes); known content is a
// cheap no-op.
func (c *kvCore) PutGraphPayload(fp service.Fingerprint, payload []byte) error {
	if len(payload) < 1 || payload[0] != graphPayloadVersion {
		return fmt.Errorf("store: graph %s: bad payload version", fp)
	}
	if got := service.FingerprintBytes(payload[1:]); got != fp {
		return fmt.Errorf("store: graph %s: payload hashes to %s", fp, got)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindGraph, fp) {
		return nil
	}
	return c.putRecord(kindGraph, fp, payload)
}

// EncodeShortcutRecordPayload renders the canonical shortcut record payload
// for a built result, byte-identical to what PutShortcut persists. It is
// the fallback for serving a binary shortcut response when the record is
// not (yet) durable: a storeless daemon, or a freshly built result whose
// detached persist has not landed. The payload names res.Shortcut.Parts,
// the partition the result was built over; the partition argument, which
// must describe that same partition, is not read. A result over a graph
// that is not canonical (graph.IsCanonical) is an error: its edge IDs are
// not the payload's.
func EncodeShortcutRecordPayload(graphFP service.Fingerprint, _ *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) ([]byte, error) {

	payload, _, err := appendShortcut(nil, graphFP, opts, res, buildTime)
	return payload, err
}

// peerRecordVersion versions the binary PeerRecord framing.
const peerRecordVersion = 1

// AppendPeerRecord renders rec in the binary peer-exchange framing,
// appending to b: version byte, the three big-endian fingerprints (key,
// graph, partition), then the graph, partition, and shortcut payloads each
// prefixed with a uvarint length. It is the only form in which a record
// crosses the peer API.
func AppendPeerRecord(b []byte, rec PeerRecord) []byte {
	b = append(b, peerRecordVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(rec.Key))
	b = binary.BigEndian.AppendUint64(b, uint64(rec.GraphFP))
	b = binary.BigEndian.AppendUint64(b, uint64(rec.PartitionFP))
	for _, p := range [...][]byte{rec.GraphPayload, rec.PartitionPayload, rec.ShortcutPayload} {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// DecodePeerRecord parses a binary peer-record frame. The payload slices
// alias b — the caller owns the buffer and must not recycle it while the
// record is in use. Nothing is verified here beyond framing: the claimed
// fingerprints are untrusted until VerifyPeerRecord re-derives them.
func DecodePeerRecord(b []byte) (PeerRecord, error) {
	var rec PeerRecord
	if len(b) < 1+24 || b[0] != peerRecordVersion {
		return rec, fmt.Errorf("store: peer record: bad version or truncated head")
	}
	rec.Key = service.Fingerprint(binary.BigEndian.Uint64(b[1:]))
	rec.GraphFP = service.Fingerprint(binary.BigEndian.Uint64(b[9:]))
	rec.PartitionFP = service.Fingerprint(binary.BigEndian.Uint64(b[17:]))
	b = b[25:]
	for _, dst := range [...]*[]byte{&rec.GraphPayload, &rec.PartitionPayload, &rec.ShortcutPayload} {
		n, used := binary.Uvarint(b)
		if used <= 0 || n > maxRecordBytes || uint64(len(b)-used) < n {
			return rec, fmt.Errorf("store: peer record: truncated payload")
		}
		*dst = b[used : used+int(n) : used+int(n)]
		b = b[used+int(n):]
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("store: peer record: %d trailing bytes", len(b))
	}
	return rec, nil
}
