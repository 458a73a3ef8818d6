package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"locshort/internal/cluster"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// peerClient is the tiny HTTP client over a daemon's /v1/peer/ API. The
// subcommands below are read-only consumers of the same wire types the
// nodes exchange among themselves, so anything locshortctl can display, a
// peer can also see — there is no privileged admin channel to secure.
type peerClient struct {
	hc *http.Client
}

func newPeerClient(timeout time.Duration) *peerClient {
	return &peerClient{hc: &http.Client{Timeout: timeout}}
}

// fetch GETs one peer API resource, asking for accept, and returns the
// body of a 200 answer and its Content-Type. A non-2xx status decodes the
// JSON error envelope so failures read like the daemon's own message.
func (pc *peerClient) fetch(addr, path, accept string) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, "", err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := pc.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil && envelope.Error != "" {
			return nil, "", fmt.Errorf("GET %s: %s (status %d)", path, envelope.Error, resp.StatusCode)
		}
		return nil, "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header.Get("Content-Type"), err
}

// get fetches the ring or the inventory, which the peer API serves as
// JSON, into out.
func (pc *peerClient) get(addr, path string, out any) error {
	body, _, err := pc.fetch(addr, path, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// getBinary fetches a record or a graph payload, which the peer API serves
// only in the binary form.
func (pc *peerClient) getBinary(addr, path string) ([]byte, error) {
	body, ctype, err := pc.fetch(addr, path, wire.ContentType)
	if err == nil && !wire.IsBinary(ctype) {
		return nil, fmt.Errorf("GET %s: answer is %q, not %s", path, ctype, wire.ContentType)
	}
	return body, err
}

// runClusterStatus renders the ring as seen from one node: membership,
// vnode counts, owned-range share, per-node record inventory, and
// reachability. The ring geometry is recomputed locally from the reported
// (nodes, vnodes) config — the same deterministic construction every node
// runs — so the SHARE column is locshortctl's own math, not a node's claim.
func runClusterStatus(addr string) error {
	pc := newPeerClient(5 * time.Second)
	var info cluster.RingInfo
	if err := pc.get(addr, "/v1/peer/ring", &info); err != nil {
		return fmt.Errorf("contact node %s: %w (is it running in cluster mode?)", addr, err)
	}
	ring, err := cluster.NewRing(info.Nodes, info.VNodes)
	if err != nil {
		return fmt.Errorf("node %s reports an invalid ring config: %w", addr, err)
	}

	fmt.Printf("cluster as seen from %s: %d nodes, %d vnodes/node, replication %d, config %s\n\n",
		info.Self, len(info.Nodes), info.VNodes, info.Replication, info.ConfigHash)

	w := len("NODE")
	for _, n := range info.Nodes {
		if len(n) > w {
			w = len(n)
		}
	}
	fmt.Printf("%-*s  %6s  %6s  %9s  %6s  %-9s\n",
		w, "NODE", "VNODES", "SHARE", "SHORTCUTS", "GRAPHS", "REACHABLE")
	reachable, drifted := 0, 0
	for _, node := range info.Nodes {
		share := fmt.Sprintf("%.1f%%", 100*ring.Share(node))
		var pi cluster.RingInfo
		if err := pc.get(node, "/v1/peer/ring", &pi); err != nil {
			fmt.Printf("%-*s  %6d  %6s  %9s  %6s  no (%v)\n",
				w, node, info.VNodes, share, "-", "-", err)
			continue
		}
		reachable++
		status := "yes"
		if pi.ConfigHash != info.ConfigHash {
			status = "yes (CONFIG DRIFT)"
			drifted++
		}
		fmt.Printf("%-*s  %6d  %6s  %9d  %6d  %-9s\n",
			w, node, pi.VNodes, share, pi.Shortcuts, pi.Graphs, status)
	}
	fmt.Printf("\n%d/%d nodes reachable\n", reachable, len(info.Nodes))
	if drifted > 0 {
		return fmt.Errorf("%d node(s) disagree with %s's ring config — a drifted node holds /readyz at 503 until the configs converge", drifted, info.Self)
	}
	return nil
}

// runRemoteVerify is the online counterpart of `verify -data`: it pulls the
// node's full inventory over the peer API and re-verifies every record
// client-side — graphs re-hashed to their fingerprints, shortcut records
// decoded against their own dependency payloads with the key re-derived
// from (graph, partition, options). The daemon is not trusted to verify
// itself: a node serving corrupt payloads fails here even if its local
// `verify` would pass against different bytes.
func runRemoteVerify(addr string) error {
	pc := newPeerClient(30 * time.Second)
	var inv cluster.Inventory
	if err := pc.get(addr, "/v1/peer/inventory", &inv); err != nil {
		return fmt.Errorf("contact node %s: %w (is it running in cluster mode?)", addr, err)
	}

	problems := 0
	problem := func(format string, args ...any) {
		problems++
		fmt.Printf("PROBLEM: "+format+"\n", args...)
	}
	for _, hexFP := range inv.Graphs {
		fp, err := service.ParseFingerprint(hexFP)
		if err != nil {
			problem("inventory lists unparseable graph fingerprint %q: %v", hexFP, err)
			continue
		}
		payload, err := pc.getBinary(addr, "/v1/peer/graphs/"+hexFP)
		if err != nil {
			problem("graph %s: %v", hexFP, err)
			continue
		}
		if _, err := store.DecodeGraphPayload(payload, fp); err != nil {
			problem("graph %s: %v", hexFP, err)
		}
	}
	for _, e := range inv.Shortcuts {
		frame, err := pc.getBinary(addr, "/v1/peer/records/"+e.Key)
		if err != nil {
			problem("shortcut %s: %v", e.Key, err)
			continue
		}
		// The frame's identities are parsed, not yet trusted.
		rec, err := store.DecodePeerRecord(frame)
		if err != nil {
			problem("shortcut %s: %v", e.Key, err)
			continue
		}
		// The record must be the one the inventory promised…
		if rec.Key.String() != e.Key || rec.GraphFP.String() != e.Graph ||
			rec.PartitionFP.String() != e.Partition {
			problem("shortcut %s: record identities (%s, %s, %s) differ from inventory (%s, %s)",
				e.Key, rec.Key, rec.GraphFP, rec.PartitionFP, e.Graph, e.Partition)
			continue
		}
		// …and every payload must hash back to the identity it claims.
		if _, _, _, _, err := store.VerifyPeerRecord(rec); err != nil {
			problem("shortcut %s: %v", e.Key, err)
		}
	}

	total := len(inv.Graphs) + len(inv.Shortcuts)
	if problems > 0 {
		return fmt.Errorf("%d of %d records failed remote verification", problems, total)
	}
	fmt.Printf("node %s clean: %d records verified remotely (%d graphs, %d shortcuts)\n",
		addr, total, len(inv.Graphs), len(inv.Shortcuts))
	return nil
}
