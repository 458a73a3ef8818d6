// Package cluster turns a set of locshortd nodes into one consistent-hash
// cluster with static membership.
//
// # Ring
//
// Ring places every node at VNodes stratified points on the 2^64 hash
// circle (each virtual node contributes several sub-points, Ketama-style,
// which is what keeps the 3-node/64-vnode load imbalance under 5%) and
// assigns each shortcut key — already a uniform 64-bit fingerprint — to the
// first point at or after it, wrapping. Ties are broken by rendezvous
// weight so the ring is a pure function of the membership set, independent
// of configuration order. Owners(key, n) walks forward to the next n-1
// distinct nodes, giving the replica set; ReplicaRanges inverts that into
// the fingerprint arcs a node is responsible for.
//
// # Cluster
//
// Cluster is one node's runtime view: it implements service.PeerFetcher
// (the engine's miss chain becomes cache, local store, peer store, cold
// build), serves the internal peer API under /v1/peer/ (Handler), relays
// misdirected build requests to the key's owner as binary request frames
// (Forward),
// broadcasts ingested graphs (BroadcastGraph — graphs replicate everywhere,
// only shortcut records are ring-partitioned), and runs the background
// anti-entropy loop (Start/SyncNow) that diffs peer inventories and pulls
// every record this node should own but does not, which is how replicas
// converge after a node dies or rejoins.
//
// # Peer transport
//
// Every peer call goes through one exchange over a per-peer pool of
// keep-alive HTTP/1.1 connections that the Cluster owns (at most 64 idle
// per peer), not net/http's client Transport. The request is written from
// the connection's reused buffer in one Write; the answer is parsed by
// http.ReadResponse, and a body longer than the call's limit is an error.
// The call's timeout is the connection's deadline, and the caller's
// context expires it early. A reused connection that fails before any
// byte of the answer was stale: the peer's whole idle list is dropped and
// the call is retried once on a fresh dial, which is safe because every
// peer call is idempotent. Only a transport failure or the timeout puts a
// peer in down backoff; a caller whose context ended has learned nothing
// about the peer.
//
// Nothing received from a peer is trusted: graph and partition payloads are
// re-hashed to their fingerprints, shortcut payloads are structurally
// re-validated and their keys re-derived from (graph, partition, options)
// before a record is served or imported. A byzantine or corrupt peer can
// cause a miss, never a wrong answer.
//
// Every node must be configured with the identical membership, vnode count,
// and replication factor; ConfigHash digests those, peers exchange it on
// every probe, and a disagreement (config drift) holds the node's /readyz
// at 503 until configs converge — a half-edited cluster rollout fails
// closed instead of serving a split ring.
package cluster
