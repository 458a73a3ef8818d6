package cluster

import (
	"context"
	"strconv"
	"time"

	"locshort/internal/service"
	"locshort/internal/store"
)

// SyncResult summarizes one anti-entropy round.
type SyncResult struct {
	// Reachable is how many peers answered the ring probe this round.
	Reachable int
	// Drift is true when a reachable peer's config hash disagreed with ours.
	Drift bool
	// PulledShortcuts and PulledGraphs count records imported this round.
	PulledShortcuts int
	PulledGraphs    int
	// Errors counts failed inventory fetches, record fetches, and imports
	// (unreachable peers are not errors; they just reduce Reachable).
	Errors int
}

// SyncNow runs one full anti-entropy round against every peer: probe its
// ring view (this is also the reachability + config-drift check), then diff
// its record inventory against the local store and pull every record this
// node should own but does not. Fetched records go through the same
// re-hash-everything verification as request-path peer fetches; nothing a
// peer says is trusted. Safe to call concurrently with serving.
func (c *Cluster) SyncNow(ctx context.Context) SyncResult {
	start := time.Now()
	var res SyncResult
	myHash := strconv.FormatUint(c.ConfigHash(), 16)

	for _, peer := range c.peers {
		info, err := c.RingInfoOf(ctx, peer)
		if err != nil {
			continue // unreachable or warming up: not this node's error
		}
		res.Reachable++
		if info.ConfigHash != myHash {
			res.Drift = true
			if c.log != nil {
				c.log.Warn("cluster_config_drift", "peer", peer,
					"peer_hash", info.ConfigHash, "self_hash", myHash)
			}
			continue // never pull from a peer on a different ring
		}
		c.syncPeer(ctx, peer, &res)
		if ctx.Err() != nil {
			break
		}
	}

	c.drift.Store(res.Drift)
	c.reachable.Store(int64(res.Reachable))
	c.syncRounds.Add(1)
	if res.Errors > 0 {
		c.syncErrs.Add(uint64(res.Errors))
	}
	if c.metrics != nil {
		c.metrics.syncRoundSeconds.Observe(time.Since(start))
	}
	if c.log != nil && (res.PulledShortcuts > 0 || res.PulledGraphs > 0 || res.Drift) {
		c.log.Info("cluster_sync_round",
			"reachable", res.Reachable, "drift", res.Drift,
			"pulled_shortcuts", res.PulledShortcuts, "pulled_graphs", res.PulledGraphs,
			"errors", res.Errors)
	}
	return res
}

// syncPeer diffs one peer's inventory against the local store and pulls
// what is missing: every graph record (graphs replicate everywhere) and
// every shortcut record whose key this node is a replica for.
func (c *Cluster) syncPeer(ctx context.Context, peer string, res *SyncResult) {
	inv, err := c.InventoryOf(ctx, peer)
	if err != nil {
		res.Errors++
		return
	}
	for _, fps := range inv.Graphs {
		fp, err := service.ParseFingerprint(fps)
		if err != nil {
			res.Errors++
			continue
		}
		if c.st.GraphKnown(fp) {
			continue
		}
		if c.pullGraph(ctx, peer, fp) {
			res.PulledGraphs++
		} else {
			res.Errors++
		}
	}
	for _, e := range inv.Shortcuts {
		key, err := service.ParseFingerprint(e.Key)
		if err != nil {
			res.Errors++
			continue
		}
		if !c.ShouldOwn(key) || c.st.HasShortcut(key) {
			continue
		}
		if c.pullShortcut(ctx, peer, key) {
			res.PulledShortcuts++
		} else {
			res.Errors++
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// pullGraph fetches, verifies, and registers one graph record.
func (c *Cluster) pullGraph(ctx context.Context, peer string, fp service.Fingerprint) bool {
	payload, ok, err := c.graphPayloadOf(ctx, peer, fp)
	if err != nil || !ok {
		return false
	}
	g, err := store.DecodeGraphPayload(payload, fp)
	if err != nil {
		if c.log != nil {
			c.log.Warn("cluster_sync_graph_rejected", "peer", peer, "graph", fp.String(), "err", err.Error())
		}
		return false
	}
	if err := c.registerGraph(fp, g, payload); err != nil {
		return false
	}
	c.syncPulls.Add(1)
	return true
}

// pullShortcut fetches one shortcut record, verifies and imports it, and
// registers its graph with the engine so the record is servable right away.
// ImportShortcut has verified that the record's graph payload hashes to
// its GraphFP and decodes to g, so both register as they came.
func (c *Cluster) pullShortcut(ctx context.Context, peer string, key service.Fingerprint) bool {
	rec, found, err := c.recordOf(ctx, peer, key)
	if err != nil || !found {
		return false
	}
	g, imported, err := c.st.ImportShortcut(rec)
	if err != nil {
		if c.log != nil {
			c.log.Warn("cluster_sync_record_rejected", "peer", peer, "key", key.String(), "err", err.Error())
		}
		return false
	}
	if imported {
		c.syncPulls.Add(1)
		if reg := c.getRegistrar(); reg != nil {
			reg.AddGraphDecoded(rec.GraphFP, g, rec.GraphPayload)
		}
	}
	return true
}

// CheckConfig probes every peer's ring view once, synchronously, and
// records drift and reachability — the startup gate locshortd runs before
// flipping ready, so a node booted with a disagreeing ring config never
// reports ready. Unreachable peers are not drift: a node must be able to
// boot first into an empty cluster.
func (c *Cluster) CheckConfig(ctx context.Context) (drift bool, reachable int) {
	myHash := strconv.FormatUint(c.ConfigHash(), 16)
	for _, peer := range c.peers {
		info, err := c.RingInfoOf(ctx, peer)
		if err != nil {
			continue
		}
		reachable++
		if info.ConfigHash != myHash {
			drift = true
			if c.log != nil {
				c.log.Warn("cluster_config_drift", "peer", peer,
					"peer_hash", info.ConfigHash, "self_hash", myHash)
			}
		}
	}
	c.drift.Store(drift)
	c.reachable.Store(int64(reachable))
	return drift, reachable
}

// Start launches the background anti-entropy loop: one round immediately,
// then one per SyncInterval until Stop. Second Start is a no-op.
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.loopDone)
		ctx := context.Background()
		ticker := time.NewTicker(c.cfg.SyncInterval)
		defer ticker.Stop()
		c.SyncNow(ctx)
		for {
			select {
			case <-c.loopStop:
				return
			case <-ticker.C:
				c.SyncNow(ctx)
			}
		}
	}()
}

// Stop shuts the anti-entropy loop down and waits for the in-flight round
// to finish. Safe to call without Start, and more than once.
func (c *Cluster) Stop() {
	select {
	case <-c.loopStop:
	default:
		close(c.loopStop)
	}
	if c.started.Load() {
		<-c.loopDone
	}
}
