package service

import (
	"context"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// Store is the durable snapshot store the engine optionally persists to and
// warm-starts from (Config.Store). internal/store provides the on-disk
// implementation; the interface lives here so the dependency points
// downward (store imports service for the fingerprint scheme, never the
// other way around).
//
// The contract mirrors the engine's content addressing exactly: graphs are
// keyed by FingerprintGraph, built shortcuts by ShortcutKey over
// (graph, partition, options). All methods must be safe for concurrent use;
// the engine calls PutShortcut from detached goroutines and GetShortcut
// from worker-pool jobs.
//
// This interface is one face of the full storage contract store.Backend;
// the semantics every implementation must honor are documented there and
// enforced by the internal/store/storetest conformance suite.
type Store interface {
	// PutGraph persists g under fp (a FingerprintGraph of g). Re-putting
	// known content must be a cheap no-op.
	PutGraph(fp Fingerprint, g *graph.Graph) error

	// EachGraph calls fn for every live graph record. A non-nil error from
	// fn aborts the iteration and is returned. Used by Engine.WarmStart.
	EachGraph(fn func(fp Fingerprint, g *graph.Graph) error) error

	// PutShortcut persists a built shortcut under its key, together with
	// the partition it covers, the options that produced it, and the
	// wall-clock build cost (what a future warm start saves).
	PutShortcut(key, graphFP Fingerprint, parts *partition.Partition,
		opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) error

	// GetShortcut loads the shortcut stored under key, reconstructed
	// against g (the engine's representative graph for the record's graph
	// fingerprint) and parts (the requested partition; same key implies
	// the same canonical partition). A nil parts decodes the record's own
	// partition payload, so the result's partition is in canonical part
	// order. ok is false when no record exists; a record that exists but
	// fails validation returns an error.
	GetShortcut(key Fingerprint, g *graph.Graph, parts *partition.Partition) (
		res *shortcut.Result, buildTime time.Duration, ok bool, err error)

	// DeleteGraph durably removes the graph record for fp and every
	// shortcut record built on it. Deleting an absent graph is a no-op.
	DeleteGraph(fp Fingerprint) error
}

// GraphPayloadStore is the optional store capability the binary ingest
// path exploits: persisting an already-encoded canonical graph payload
// verbatim, skipping the re-encode PutGraph would pay. It is deliberately
// not part of Store — existing implementations and test stubs keep
// compiling, and Engine.AddGraphDecoded falls back to PutGraph when the
// assertion fails. *store.Store implements it.
type GraphPayloadStore interface {
	// PutGraphPayload persists a canonical graph payload under fp. The
	// implementation must verify the payload hashes to fp before writing;
	// known content must be a cheap no-op.
	PutGraphPayload(fp Fingerprint, payload []byte) error
}

// PeerFetcher is the cluster-mode extension of the miss chain
// (Config.Peers): after the local cache and local store both miss, the
// engine asks the fetcher for the record before paying a cold construction.
// internal/cluster implements it by asking the key's replica nodes over the
// peer API and re-verifying every fetched payload against its fingerprints;
// the interface lives here so the dependency points downward (cluster
// imports service, never the other way around).
type PeerFetcher interface {
	// FetchShortcut returns the shortcut stored under key on some peer,
	// reconstructed against g (the engine's representative) and parts (the
	// requested partition; nil decodes the record's own, as GetShortcut
	// does), plus the original construction's cost. ok is
	// false when no reachable peer holds the record; a fetched record that
	// fails verification returns an error. The implementation owns
	// durability: a successfully fetched record is already imported into
	// the local store when FetchShortcut returns, so the engine must not
	// persist it again.
	FetchShortcut(ctx context.Context, key Fingerprint, g *graph.Graph, parts *partition.Partition) (
		res *shortcut.Result, buildTime time.Duration, ok bool, err error)
}

// BuildSource records how a Cached entry materialized: by running the
// construction, by loading a persisted build from the durable store, or by
// fetching a peer node's persisted build. Together with Engine.Build's hit
// flag this classifies every response into the latency classes the load
// generator reports: cache (resident), store (warm start), peer (cluster
// fetch), built (cold construction).
type BuildSource uint8

const (
	// SourceBuilt marks an entry produced by running shortcut.Build.
	SourceBuilt BuildSource = iota
	// SourceStore marks an entry loaded from the durable store without
	// rebuilding.
	SourceStore
	// SourcePeer marks an entry fetched from a peer node's store without
	// rebuilding (cluster mode only).
	SourcePeer
)

// String returns the wire form used in the locshortd shortcut response.
func (s BuildSource) String() string {
	switch s {
	case SourceStore:
		return "store"
	case SourcePeer:
		return "peer"
	}
	return "built"
}
