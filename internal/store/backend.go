package store

import (
	"fmt"

	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/service"
)

// Backend is the complete storage contract the system depends on, extracted
// from what the layers above actually call: the engine's persistence seam
// (service.Store), the async job manager's
// record store (jobs.Store), the peer/inventory surface internal/cluster
// replicates through, and the admin surface locshortctl and the daemon's
// warm-start logging read. It is implemented exactly once, by the shared
// record index (kvCore); the two backends — the append-only segment store
// (Store) and the ephemeral in-memory backend (Mem) — differ only in the
// payload store underneath it, and both must pass the conformance suite
// (conformance_suite_test.go), which turns the semantics below into
// executable law.
//
// Contract highlights, shared by every backend and enforced by the suite:
//
//   - Content addressing: graph and partition payloads are exactly the
//     canonical encodings their fingerprints hash; a payload that does not
//     hash to its key is never written (PutGraphPayload, ImportShortcut)
//     and never served (every Get decodes with verification).
//   - Idempotent re-puts: re-putting known content is a cheap no-op; live
//     record counts do not grow.
//   - Tombstone deletes: DeleteGraph removes the graph record and every
//     shortcut built on it; deleting an absent graph is a no-op; on a
//     durable backend the delete survives reopen.
//   - No resurrection: PutShortcut for a graph that is no longer live is
//     silently dropped (a detached engine persist can race DeleteGraph).
//   - Iteration order: EachGraph ascends by fingerprint, EachJob by job
//     ID, so warm starts are deterministic across backends.
//   - Verification: a record that exists but fails validation surfaces as
//     an error (or a Verify problem), never as a wrong answer.
//   - Concurrency: every method is safe for concurrent use; reads are not
//     stalled behind other requests' persistence.
//
// GC is deliberately NOT part of Backend: an ephemeral backend has nothing
// to compact. Backends that reclaim space implement Compactor; callers
// type-assert and degrade gracefully ("not supported") when it is absent.
type Backend interface {
	service.Store
	jobs.Store
	PeerStore

	// GetGraph decodes the live graph record for fp, if any.
	GetGraph(fp service.Fingerprint) (*graph.Graph, bool, error)
	// ShortcutPayload returns the raw shortcut record payload for key —
	// the binary /v1/shortcuts response body. The slice may alias
	// backend-internal memory (zero-copy on the mmap'd segment store);
	// treat it as read-only.
	ShortcutPayload(key service.Fingerprint) ([]byte, bool, error)

	// Records lists the live records sorted by kind then key.
	Records() []RecordInfo
	// Verify re-reads and fully decodes every live record, returning one
	// Problem per failure; an empty slice means the backend is clean.
	Verify() []Problem
	// OpenStats reports live record counts and on-disk footprint, kept
	// current as the backend is written.
	OpenStats() OpenStats
	// Dir returns the backend's root directory ("" for backends with no
	// on-disk presence).
	Dir() string
	// Close releases the backend's resources. Durable backends never lose
	// acknowledged records at Close; zero-copy payload slices handed out
	// by reads become invalid, so callers drain readers first.
	Close() error
}

// PeerStore is the trustless replication surface internal/cluster moves
// records through: inventory scans to find what a node should own but
// lacks, raw canonical payload export, and verified import (every payload
// re-hashed, every key re-derived — see VerifyPeerRecord).
type PeerStore interface {
	// HasShortcut reports whether a live shortcut record exists for key.
	HasShortcut(key service.Fingerprint) bool
	// GraphKnown reports whether a live graph record exists for fp.
	GraphKnown(fp service.Fingerprint) bool
	// GraphPayload returns the raw graph record payload for fp (version
	// byte + canonical encoding), suitable for shipping to a peer.
	GraphPayload(fp service.Fingerprint) ([]byte, bool, error)
	// ShortcutRecord assembles the PeerRecord for key: the shortcut
	// payload and the graph and partition payloads it references. ok is
	// false when no live shortcut record exists; a live shortcut whose
	// dependencies are missing is an integrity error, not a miss.
	ShortcutRecord(key service.Fingerprint) (PeerRecord, bool, error)
	// ShortcutInventory lists the live shortcut records whose keys fall on
	// the arc (lo, hi] of the fingerprint circle (wrapping; lo == hi lists
	// everything), sorted by key, without reading any payload.
	ShortcutInventory(lo, hi uint64) []InventoryEntry
	// GraphFingerprints lists the live graph record keys, sorted.
	GraphFingerprints() []service.Fingerprint
	// ImportShortcut verifies rec end to end (VerifyPeerRecord) and
	// durably installs whatever records the backend is missing. It returns
	// the decoded graph and whether the shortcut record was actually
	// written — false means a record for the key already existed. An
	// import must never resurrect a record deleted first.
	ImportShortcut(rec PeerRecord) (*graph.Graph, bool, error)
}

// Compactor is the optional space-reclamation capability. The segment
// store compacts its append-only segments; the in-memory backend reclaims
// eagerly and does not implement it.
type Compactor interface {
	GC() (GCStats, error)
}

// Backend kinds accepted by OpenBackend and the daemons' -store flag.
const (
	KindSegment = "segment"
	KindMem     = "mem"
)

// Kinds lists the selectable backend kinds.
func Kinds() []string { return []string{KindSegment, KindMem} }

// OpenBackend opens the named backend kind rooted at dir. KindSegment
// (also "") is the append-only segment store; KindMem ignores dir and
// returns a fresh ephemeral backend.
func OpenBackend(kind, dir string, opts Options) (Backend, error) {
	switch kind {
	case "", KindSegment:
		return Open(dir, opts)
	case KindMem:
		return OpenMem(), nil
	default:
		return nil, fmt.Errorf("store: unknown backend kind %q (want one of %v)", kind, Kinds())
	}
}
