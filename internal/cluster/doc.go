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
// distinct nodes, giving the replica set.
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
// the connection's reused buffer in one Write. The answer is parsed in the
// connection's read buffer by readAnswer, not net/http: a status line of
// HTTP/1.x and three digits (no 1xx), at most 64 header lines of one read
// buffer each, no folded line, token names and values without control
// characters. It acts on Content-Length, chunked Transfer-Encoding and
// Connection, and copies only the values of AnswerHeaders, into one
// string; whatever it accepts, http.ReadResponse accepts too
// (FuzzReadAnswer). A body longer than the call's limit is an error, and
// a declared length reserves memory only as the body arrives.
// The call's timeout is the connection's deadline, and the caller's
// context expires it early. A reused connection that fails before any
// byte of the answer was stale: the peer's whole idle list is dropped and
// the call is retried once on a fresh dial, which is safe because every
// peer call is idempotent. Only a transport failure or the timeout puts a
// peer in down backoff, which starts at 50 ms and doubles with each
// consecutive failure up to Config.DownBackoff; a caller whose context
// ended has learned nothing about the peer.
//
// Records and graphs cross the peer API only in the binary form, a record
// as one store.AppendPeerRecord frame and a graph as its raw canonical
// payload, whatever a request's Accept says; a peer answer in any other
// form is a fetch error, not a fallback. The ring, the inventory and
// error envelopes are JSON.
//
// What a peer sends is re-checked before a record is served or imported:
// graph and partition payloads are re-hashed to their fingerprints,
// shortcut payloads are structurally re-validated (every H_i an unrepeated
// set of tree edges) and their keys re-derived from (graph, partition,
// options). The key does not cover the H sets, so a byzantine or corrupt
// peer can cause a miss or substitute another tree-restricted shortcut
// under the same key (DESIGN.md §9); ROADMAP item 1's certificate is the
// planned fix.
//
// Every node must be configured with the identical membership, vnode count,
// and replication factor; ConfigHash digests those, peers exchange it on
// every probe, and a disagreement (config drift) holds the node's /readyz
// at 503 until configs converge — a half-edited cluster rollout fails
// closed instead of serving a split ring.
package cluster
