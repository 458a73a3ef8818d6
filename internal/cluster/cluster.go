package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/graph"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// Config wires a Cluster. Self and Nodes are required (Self must appear in
// Nodes) and so is Store: cluster mode without a durable store has nothing
// to replicate. The zero value of every other field selects defaults.
type Config struct {
	// Self is this node's advertised host:port — the address peers dial,
	// which must equal the address this node listed in their Nodes config
	// (the ring hashes addresses, so "localhost:8080" and "127.0.0.1:8080"
	// are different nodes).
	Self string
	// Nodes is the full static membership, including Self. Every node must
	// be configured with the identical set; the config-hash drift guard
	// holds readiness down when they disagree.
	Nodes []string
	// VNodes is the configured virtual nodes per member (default 64).
	VNodes int
	// Replication is how many distinct nodes should hold each shortcut
	// record (default 2, clamped to the membership size). The primary owner
	// builds; anti-entropy copies the record to the remaining replicas.
	Replication int
	// SyncInterval is the anti-entropy cadence (default 10s).
	SyncInterval time.Duration
	// FetchTimeout bounds each peer metadata/record call (default 10s).
	FetchTimeout time.Duration
	// ForwardTimeout bounds a forwarded build request (default 2m — it may
	// pay a full cold construction on the owner).
	ForwardTimeout time.Duration
	// DownBackoff caps how long a peer stays marked down after a transport
	// failure or a call past its timeout before it is dialed again
	// (default 2s); a caller giving up does not mark it down. The first
	// failure holds the peer down for firstDownBackoff, and each further
	// consecutive one doubles that, up to DownBackoff; an answer resets it.
	// A peer that is not up yet at a cluster's start is thus tried again
	// within tens of milliseconds, while a dead one costs one refused dial
	// per DownBackoff once the doubling reaches it.
	DownBackoff time.Duration
	// Store is the node's durable store; fetched records import into it.
	Store *store.Store
	// Obs, when non-nil, registers the cluster metric families.
	Obs *obs.Registry
	// Logger, when non-nil, receives forward/sync/drift log lines.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > len(c.Nodes) {
		c.Replication = len(c.Nodes)
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 10 * time.Second
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 10 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Minute
	}
	if c.DownBackoff <= 0 {
		c.DownBackoff = 2 * time.Second
	}
	return c
}

// GraphRegistrar registers a graph a peer handed over with a serving
// engine, so pushed graphs and records pulled by anti-entropy become
// requestable without a restart. Every such graph arrives as canonical
// payload bytes that have already been verified to hash to fp and decode
// to g, so the registrar skips the re-fingerprint and re-encode.
// *service.Engine implements it.
type GraphRegistrar interface {
	AddGraphDecoded(fp service.Fingerprint, g *graph.Graph, payload []byte)
}

// Cluster is one node's view of a static-membership locshortd cluster: the
// consistent-hash ring, the peer-API client (fetch, forward, push, sync) and
// server (Handler), per-peer health, and the anti-entropy loop. It
// implements service.PeerFetcher. All methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	ring  *Ring
	self  string
	peers []string // Nodes minus Self, sorted
	st    *store.Store
	log   *obs.Logger

	mu        sync.RWMutex
	registrar GraphRegistrar

	// links[peer] holds the peer's down backoff and idle connections.
	// Keys are fixed at construction, so reads are lock-free lookups in
	// an immutable map.
	links map[string]*link

	drift     atomic.Bool
	reachable atomic.Int64

	forwards    atomic.Uint64
	forwardErrs atomic.Uint64
	pushes      atomic.Uint64
	pushErrs    atomic.Uint64
	syncPulls   atomic.Uint64
	syncRounds  atomic.Uint64
	syncErrs    atomic.Uint64

	metrics *clusterMetrics

	loopStop chan struct{}
	loopDone chan struct{}
	started  atomic.Bool
}

var _ service.PeerFetcher = (*Cluster)(nil)

// New validates cfg and builds the node's cluster view. No network traffic
// happens here; call CheckConfig for the startup drift probe and Start for
// the anti-entropy loop.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Store is required (cluster mode needs -data)")
	}
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	selfKnown := false
	var peers []string
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			selfKnown = true
			continue
		}
		peers = append(peers, n)
	}
	if !selfKnown {
		return nil, fmt.Errorf("cluster: self %q is not in the node list %v", cfg.Self, cfg.Nodes)
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     ring,
		self:     cfg.Self,
		peers:    peers,
		st:       cfg.Store,
		log:      cfg.Logger,
		links:    make(map[string]*link, len(peers)),
		loopStop: make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	for _, p := range peers {
		c.links[p] = &link{}
	}
	if cfg.Obs != nil {
		c.metrics = newClusterMetrics(cfg.Obs, c)
	}
	return c, nil
}

// SetRegistrar wires the serving engine in after construction (the engine's
// Config needs the Cluster first, so the dependency is circular at build
// time and resolved here).
func (c *Cluster) SetRegistrar(r GraphRegistrar) {
	c.mu.Lock()
	c.registrar = r
	c.mu.Unlock()
}

func (c *Cluster) getRegistrar() GraphRegistrar {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.registrar
}

// Self returns this node's advertised address.
func (c *Cluster) Self() string { return c.self }

// Peers returns the other members, sorted.
func (c *Cluster) Peers() []string { return append([]string(nil), c.peers...) }

// ConfigHash digests the full cluster configuration: ring membership,
// vnodes, and replication. Nodes whose hashes differ must not serve as one
// cluster; /readyz holds 503 while a reachable peer disagrees.
func (c *Cluster) ConfigHash() uint64 {
	return mix64(c.ring.ConfigHash() ^ mix64(uint64(c.cfg.Replication)+1))
}

// Owner returns the primary owner of key and whether it is this node.
func (c *Cluster) Owner(key service.Fingerprint) (node string, self bool) {
	node = c.ring.Owner(key)
	return node, node == c.self
}

// Replicas returns the nodes that should hold key's record, primary first.
func (c *Cluster) Replicas(key service.Fingerprint) []string {
	return c.ring.Owners(key, c.cfg.Replication)
}

// ShouldOwn reports whether this node is in key's replica set — the
// anti-entropy pull filter.
func (c *Cluster) ShouldOwn(key service.Fingerprint) bool {
	for _, n := range c.Replicas(key) {
		if n == c.self {
			return true
		}
	}
	return false
}

// Drift reports whether the last configuration probe found a reachable peer
// whose ring config disagrees with ours.
func (c *Cluster) Drift() bool { return c.drift.Load() }

// Available reports whether peer is currently dialable — false while the
// peer sits in down backoff after a transport failure. The router uses it
// to skip forwarding to a node known to be dead (and serve locally
// instead) without paying a dial.
func (c *Cluster) Available(peer string) bool { return c.available(peer) }

// available reports whether peer is currently dialable (not in backoff).
func (c *Cluster) available(peer string) bool {
	l, ok := c.links[peer]
	if !ok {
		return false
	}
	until := l.downUntil.Load()
	return until == 0 || time.Now().UnixNano() >= until
}

// firstDownBackoff is how long the first of a peer's consecutive
// failures holds it down.
const firstDownBackoff = 50 * time.Millisecond

// markDown puts peer in dial backoff after a transport failure or a call
// past its timeout: firstDownBackoff, doubled for each consecutive
// failure before it, at most DownBackoff.
func (c *Cluster) markDown(peer string) {
	if l, ok := c.links[peer]; ok {
		backoff := c.cfg.DownBackoff
		if n := l.failures.Add(1); n <= 16 {
			backoff = min(backoff, firstDownBackoff<<(n-1))
		}
		l.downUntil.Store(time.Now().Add(backoff).UnixNano())
	}
}

// markUp clears peer's backoff after it answered.
func (c *Cluster) markUp(peer string) {
	if l, ok := c.links[peer]; ok {
		l.failures.Store(0)
		l.downUntil.Store(0)
	}
}

// Stats is an atomic snapshot of the cluster counters.
type Stats struct {
	Forwards        uint64
	ForwardErrors   uint64
	GraphPushes     uint64
	GraphPushErrors uint64
	SyncPulls       uint64
	SyncRounds      uint64
	SyncErrors      uint64
	PeersReachable  int64
	Drift           bool
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Forwards:        c.forwards.Load(),
		ForwardErrors:   c.forwardErrs.Load(),
		GraphPushes:     c.pushes.Load(),
		GraphPushErrors: c.pushErrs.Load(),
		SyncPulls:       c.syncPulls.Load(),
		SyncRounds:      c.syncRounds.Load(),
		SyncErrors:      c.syncErrs.Load(),
		PeersReachable:  c.reachable.Load(),
		Drift:           c.drift.Load(),
	}
}

// ---- peer API wire types ----

// RingInfo is GET /v1/peer/ring: the node's view of the cluster config plus
// its inventory counts (what locshortctl cluster status tabulates).
type RingInfo struct {
	Self        string   `json:"self"`
	Nodes       []string `json:"nodes"`
	VNodes      int      `json:"vnodes"`
	Replication int      `json:"replication"`
	// ConfigHash is the 16-hex digest of (nodes, vnodes, replication);
	// peers compare it to detect config drift.
	ConfigHash string `json:"config_hash"`
	Shortcuts  int    `json:"shortcuts"`
	Graphs     int    `json:"graphs"`
}

// InventoryEntry is one shortcut record in GET /v1/peer/inventory.
type InventoryEntry struct {
	Key       string `json:"key"`
	Graph     string `json:"graph"`
	Partition string `json:"partition"`
}

// Inventory is GET /v1/peer/inventory: the node's live record keys,
// optionally restricted to the fingerprint arc (lo, hi] (?lo=&hi=, the
// wrapping convention of store.Store.ShortcutInventory).
type Inventory struct {
	Shortcuts []InventoryEntry `json:"shortcuts"`
	Graphs    []string         `json:"graphs"`
}

// ---- peer API client ----

// errNotFound distinguishes a peer's 404 (clean miss) from real failures.
var errNotFound = fmt.Errorf("cluster: peer record not found")

// maxPeerGet bounds a peer GET answer that has no tighter bound: the ring,
// the inventory, and a shortcut record, which the ingest limits do not
// bound (k parts of up to n-1 tree edges each).
const maxPeerGet = 256 << 20

// get GETs a peer API path, asking for accept, and returns the body of a
// 200 answer of at most limit bytes, with its kept header values; a 404
// is errNotFound, any other status an error quoting the answer.
func (c *Cluster) get(ctx context.Context, peer, path, accept string, limit int64) ([]byte, Header, error) {
	status, hdr, body, err := c.exchange(ctx, c.cfg.FetchTimeout, http.MethodGet, peer, path, nil, limit,
		"Accept", accept)
	switch {
	case err != nil:
		return nil, Header{}, err
	case status == http.StatusNotFound:
		return nil, Header{}, errNotFound
	case status != http.StatusOK:
		return nil, Header{}, fmt.Errorf("cluster: peer %s %s: %d %s: %s", peer, path, status,
			http.StatusText(status), bytes.TrimSpace(body[:min(len(body), 512)]))
	}
	return body, hdr, nil
}

// getJSON GETs a peer API path and decodes the JSON answer into out.
func (c *Cluster) getJSON(ctx context.Context, peer, path string, out any) error {
	body, _, err := c.get(ctx, peer, path, "", maxPeerGet)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// RingInfoOf fetches a peer's ring view.
func (c *Cluster) RingInfoOf(ctx context.Context, peer string) (RingInfo, error) {
	var info RingInfo
	err := c.getJSON(ctx, peer, "/v1/peer/ring", &info)
	return info, err
}

// InventoryOf fetches a peer's full record inventory.
func (c *Cluster) InventoryOf(ctx context.Context, peer string) (Inventory, error) {
	var inv Inventory
	err := c.getJSON(ctx, peer, "/v1/peer/inventory", &inv)
	return inv, err
}

// getBinary GETs a record or a graph payload, which the peer API serves
// only in the binary form, and returns the raw body, of at most limit
// bytes. An answer in any other form is an error.
func (c *Cluster) getBinary(ctx context.Context, peer, path string, limit int64) ([]byte, error) {
	body, hdr, err := c.get(ctx, peer, path, wire.ContentType, limit)
	if ct := hdr.Get("Content-Type"); err == nil && !wire.IsBinary(ct) {
		return nil, fmt.Errorf("cluster: peer %s %s: answer is %q, not %s", peer, path, ct, wire.ContentType)
	}
	return body, err
}

// recordOf fetches one shortcut record from a peer as a binary peer-record
// frame (store.AppendPeerRecord). found is false on a clean 404.
func (c *Cluster) recordOf(ctx context.Context, peer string, key service.Fingerprint) (store.PeerRecord, bool, error) {
	body, err := c.getBinary(ctx, peer, "/v1/peer/records/"+key.String(), maxPeerGet)
	if err == errNotFound {
		return store.PeerRecord{}, false, nil
	}
	if err != nil {
		return store.PeerRecord{}, false, err
	}
	rec, err := store.DecodePeerRecord(body)
	if err != nil {
		return store.PeerRecord{}, false, err
	}
	if rec.Key != key {
		return store.PeerRecord{}, false, fmt.Errorf("cluster: peer %s returned record %s for key %s", peer, rec.Key, key)
	}
	return rec, true, nil
}

// graphPayloadOf fetches one graph record payload from a peer. The answer
// is held to maxGraphPayload, as a peer graph PUT is.
func (c *Cluster) graphPayloadOf(ctx context.Context, peer string, fp service.Fingerprint) ([]byte, bool, error) {
	body, err := c.getBinary(ctx, peer, "/v1/peer/graphs/"+fp.String(), maxGraphPayload)
	if err == errNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return body, true, nil
}

// PushGraph PUTs a graph record payload to one peer, raw, in the binary
// form the peer API takes.
func (c *Cluster) PushGraph(ctx context.Context, peer string, fp service.Fingerprint, payload []byte) error {
	status, _, _, err := c.exchange(ctx, c.cfg.FetchTimeout, http.MethodPut, peer,
		"/v1/peer/graphs/"+fp.String(), payload, 512, "Content-Type", wire.ContentType)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("cluster: peer %s rejected graph %s: %d %s", peer, fp, status, http.StatusText(status))
	}
	return err
}

// BroadcastGraph best-effort pushes an ingested graph's payload to every
// peer (skipping those in down backoff), so any node can accept shortcut
// requests for it immediately — graphs are replicated everywhere, only
// shortcut records are ring-partitioned. Failures count in GraphPushErrors;
// anti-entropy heals the gap on the next round.
func (c *Cluster) BroadcastGraph(ctx context.Context, fp service.Fingerprint, payload []byte) {
	var wg sync.WaitGroup
	for _, peer := range c.peers {
		if !c.available(peer) {
			c.pushErrs.Add(1)
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if err := c.PushGraph(ctx, peer, fp, payload); err != nil {
				c.pushErrs.Add(1)
				if c.log != nil {
					c.log.Warn("cluster_graph_push_failed", "peer", peer, "graph", fp.String(), "err", err.Error())
				}
				return
			}
			c.pushes.Add(1)
		}(peer)
	}
	wg.Wait()
}

// Forward relays a binary request frame to the owner node's public API,
// asking for the caller's accept ("" sends no Accept header, which gets
// JSON), and returns the owner's answer: status, the values of
// AnswerHeaders, and body. err is
// non-nil when no whole answer came back: the owner is down or timed out
// (the caller falls back to serving locally, and the owner enters down
// backoff), its answer ran past 64 MiB, or ctx ended first. A call whose
// ctx ended counts as neither a forward nor a forward error, and the
// caller should not serve it in the owner's place. An HTTP error status
// from the owner comes back as an answer for the caller to pass on. The
// X-Locshort-Forwarded header stops the owner from forwarding again.
func (c *Cluster) Forward(ctx context.Context, owner, path string, frame []byte, accept string) (int, Header, []byte, error) {
	start := time.Now()
	status, hdr, body, err := c.exchange(ctx, c.cfg.ForwardTimeout, http.MethodPost, owner, path, frame, 64<<20,
		"Content-Type", wire.ContentType, "Accept", accept, ForwardedHeader, "1")
	if c.metrics != nil {
		c.metrics.forwardSeconds.Observe(time.Since(start))
	}
	if err != nil {
		if ctx.Err() == nil {
			c.forwardErrs.Add(1)
		}
		return 0, Header{}, nil, err
	}
	c.forwards.Add(1)
	return status, hdr, body, nil
}

// ForwardedHeader marks a relayed request so the owner serves it locally
// instead of consulting the ring again (no forwarding loops).
const ForwardedHeader = "X-Locshort-Forwarded"

// FetchShortcut implements service.PeerFetcher: ask key's replica peers
// (then any remaining peer — during degraded operation a non-replica may
// hold a record it built as a fallback owner) for the record, re-verify the
// payloads locally, import the record into the local store, and return the
// shortcut decoded against this engine's representative and parts, or the
// record's own partition when parts is nil. A clean miss
// everywhere is (ok=false, err=nil); transport or verification failures
// report the last error so the engine can count them.
func (c *Cluster) FetchShortcut(ctx context.Context, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, bool, error) {

	// Replica peers first (most likely holders), then the rest.
	candidates := make([]string, 0, len(c.peers))
	inReplicas := make(map[string]bool)
	for _, n := range c.Replicas(key) {
		if n != c.self {
			candidates = append(candidates, n)
			inReplicas[n] = true
		}
	}
	for _, n := range c.peers {
		if !inReplicas[n] {
			candidates = append(candidates, n)
		}
	}
	var lastErr error
	for _, peer := range candidates {
		if !c.available(peer) {
			continue
		}
		rec, found, err := c.recordOf(ctx, peer, key)
		if err != nil {
			lastErr = err
			continue
		}
		if !found {
			continue
		}
		// Decode against OUR representative graph and the requested
		// partition, or the record's own when the request carries only a
		// key: this is the full verification chain of a store read
		// (partition fingerprint and connectivity, structural validation,
		// key re-derivation), so a tampered or corrupt record is rejected
		// here, before anything is served.
		res, bt, err := store.DecodePeerShortcut(rec, g, parts)
		if err != nil {
			lastErr = fmt.Errorf("cluster: record %s from %s failed verification: %w", key, peer, err)
			if c.log != nil {
				c.log.Warn("cluster_peer_record_rejected", "peer", peer, "key", key.String(), "err", err.Error())
			}
			continue
		}
		// Import the raw record (its own full verification runs against the
		// payload's canonical graph): this node is serving the key, so it
		// keeps a durable copy and stops re-fetching. Import failure is not
		// a serving failure.
		if _, _, err := c.st.ImportShortcut(rec); err != nil {
			if c.log != nil {
				c.log.Warn("cluster_peer_import_failed", "key", key.String(), "err", err.Error())
			}
		}
		if c.log != nil {
			c.log.Info("cluster_peer_fetch", "peer", peer, "key", key.String())
		}
		return res, bt, true, nil
	}
	return nil, 0, false, lastErr
}

// ---- peer API server ----

// Handler serves the internal peer API under /v1/peer/. Mount it on the
// node's public mux; it is exempt from the readiness gate (peers must be
// able to compare configs and pull records while a node warms up).
//
//	GET /v1/peer/ring          ring config + inventory counts (JSON)
//	GET /v1/peer/inventory     live record keys (JSON; ?lo=&hi= restricts the arc)
//	GET /v1/peer/records/{key} one shortcut record + dependency payloads
//	                           (binary peer-record frame, store.AppendPeerRecord)
//	GET /v1/peer/graphs/{fp}   one graph record payload (binary, raw)
//	PUT /v1/peer/graphs/{fp}   ingest-broadcast receiver: verify + register
//	                           (binary, raw; 413 past maxGraphPayload)
//
// Records and graph payloads travel only as application/x-locshort,
// whatever the request's Accept says; errors are JSON envelopes.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/peer/ring", c.handleRing)
	mux.HandleFunc("GET /v1/peer/inventory", c.handleInventory)
	mux.HandleFunc("GET /v1/peer/records/{key}", c.handleRecord)
	mux.HandleFunc("GET /v1/peer/graphs/{fp}", c.handleGraphGet)
	mux.HandleFunc("PUT /v1/peer/graphs/{fp}", c.handleGraphPut)
	return mux
}

func (c *Cluster) peerJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil && c.log != nil {
		// Headers are gone; log so a flaky peer link is diagnosable.
		c.log.Warn("cluster_encode_failed", "err", err.Error())
	}
}

func (c *Cluster) peerError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if eerr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); eerr != nil && c.log != nil {
		c.log.Warn("cluster_encode_failed", "err", eerr.Error())
	}
}

func (c *Cluster) handleRing(w http.ResponseWriter, r *http.Request) {
	ss := c.st.OpenStats()
	c.peerJSON(w, RingInfo{
		Self:        c.self,
		Nodes:       c.ring.Nodes(),
		VNodes:      c.cfg.VNodes,
		Replication: c.cfg.Replication,
		ConfigHash:  strconv.FormatUint(c.ConfigHash(), 16),
		Shortcuts:   ss.Shortcuts,
		Graphs:      ss.Graphs,
	})
}

func (c *Cluster) handleInventory(w http.ResponseWriter, r *http.Request) {
	lo, hi := uint64(0), uint64(0)
	if ls := r.URL.Query().Get("lo"); ls != "" {
		v, err := strconv.ParseUint(ls, 16, 64)
		if err != nil {
			c.peerError(w, http.StatusBadRequest, fmt.Errorf("bad lo %q: %w", ls, err))
			return
		}
		lo = v
	}
	if hs := r.URL.Query().Get("hi"); hs != "" {
		v, err := strconv.ParseUint(hs, 16, 64)
		if err != nil {
			c.peerError(w, http.StatusBadRequest, fmt.Errorf("bad hi %q: %w", hs, err))
			return
		}
		hi = v
	}
	entries := c.st.ShortcutInventory(lo, hi)
	inv := Inventory{Shortcuts: make([]InventoryEntry, len(entries))}
	for i, e := range entries {
		inv.Shortcuts[i] = InventoryEntry{
			Key: e.Key.String(), Graph: e.GraphFP.String(), Partition: e.PartitionFP.String(),
		}
	}
	for _, fp := range c.st.GraphFingerprints() {
		inv.Graphs = append(inv.Graphs, fp.String())
	}
	c.peerJSON(w, inv)
}

func (c *Cluster) handleRecord(w http.ResponseWriter, r *http.Request) {
	key, err := service.ParseFingerprint(r.PathValue("key"))
	if err != nil {
		c.peerError(w, http.StatusBadRequest, err)
		return
	}
	rec, ok, err := c.st.ShortcutRecord(key)
	if err != nil {
		c.peerError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		c.peerError(w, http.StatusNotFound, fmt.Errorf("no record for %s", key))
		return
	}
	c.peerBinary(w, store.AppendPeerRecord(nil, rec))
}

// peerBinary writes a 200 answer whose body is b, in the binary form.
func (c *Cluster) peerBinary(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	if _, err := w.Write(b); err != nil && c.log != nil {
		c.log.Warn("cluster_encode_failed", "err", err.Error())
	}
}

func (c *Cluster) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	fp, err := service.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		c.peerError(w, http.StatusBadRequest, err)
		return
	}
	payload, ok, err := c.st.GraphPayload(fp)
	if err != nil {
		c.peerError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		c.peerError(w, http.StatusNotFound, fmt.Errorf("no graph record for %s", fp))
		return
	}
	c.peerBinary(w, payload)
}

// maxGraphPayload is the longest graph payload store.DecodeGraphPayload
// accepts: a version byte, the 16-byte header and MaxEdges edges of 24
// bytes. A peer graph PUT, and a graph GET's answer, may be no longer.
const maxGraphPayload = 17 + 24*graph.MaxEdges

func (c *Cluster) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	fp, err := service.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		c.peerError(w, http.StatusBadRequest, err)
		return
	}
	if ct := r.Header.Get("Content-Type"); !wire.IsBinary(ct) {
		c.peerError(w, http.StatusUnsupportedMediaType, fmt.Errorf("graph body is %q, not %s", ct, wire.ContentType))
		return
	}
	payload, err := readLimited(w, r, maxGraphPayload)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		c.peerError(w, code, err)
		return
	}
	// Decode verifies the payload hashes to fp — a peer cannot plant a
	// graph under a fingerprint it does not own.
	g, err := store.DecodeGraphPayload(payload, fp)
	if err != nil {
		c.peerError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := c.registerGraph(fp, g, payload); err != nil {
		c.peerError(w, http.StatusInternalServerError, err)
		return
	}
	c.peerJSON(w, map[string]string{"graph": fp.String()})
}

// readLimited reads a request body of at most limit bytes. A longer body
// fails with an *http.MaxBytesError: at once when its declared length is
// over the limit, else once limit+1 bytes have arrived.
func readLimited(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// registerGraph installs a verified graph: through the engine when wired
// (which also persists it), else straight into the store. Payload is the
// canonical bytes g decoded from, persisted verbatim.
func (c *Cluster) registerGraph(fp service.Fingerprint, g *graph.Graph, payload []byte) error {
	if reg := c.getRegistrar(); reg != nil {
		reg.AddGraphDecoded(fp, g, payload)
		return nil
	}
	return c.st.PutGraphPayload(fp, payload)
}
