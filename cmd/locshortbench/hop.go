package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// forwardHop launches a three-node cluster and times idle sequential
// requests for one resident key sent through its ring owner and through a
// non-owner, interleaved; the hop is the difference of the two medians,
// per encoding (the JSON relay and the binary-frame relay are separate
// code paths in the daemon).
func (b *bench) forwardHop(ctx context.Context, dir string) ([]metric, error) {
	w := &workload{
		name: "hop", nodes: 3, catalog: []string{b.hit.spec}, partSpec: b.hit.partSpec,
		keysPerGraph: 1, prewarm: true, pick: pickUniform, encoding: encAlternate,
	}
	p, err := newPlan(w, 1)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, w.nodes)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("node%d", i))
	}
	dep, err := b.deploy(ctx, p, dirs, dir)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	r := request{graph: 0, seed: p.keySeeds[0][0]}
	owner, err := ownerNode(p, dep, r.graph, r.seed)
	if err != nil {
		return nil, err
	}
	via := [2]int{owner, (owner + 1) % w.nodes}
	var lat [2][2][]float64 // [binary][through non-owner]
	for i := 0; i < b.probes; i++ {
		for e, bin := range []bool{false, true} {
			for v, node := range via {
				r.binary, r.node = bin, node
				start := time.Now()
				resp, err := dep.postShortcut(p, r)
				if err != nil {
					return nil, err
				}
				if resp.servedBy != dep.peers[owner] {
					return nil, fmt.Errorf("served by %q, want the owner %s", resp.servedBy, dep.peers[owner])
				}
				lat[e][v] = append(lat[e][v], float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
	}
	hop := func(e int) float64 { return median(lat[e][1]) - median(lat[e][0]) }
	return []metric{
		{Name: "cluster.forward_hop_us.json", Value: hop(0), Unit: "us", Samples: b.probes},
		{Name: "cluster.forward_hop_us.binary", Value: hop(1), Unit: "us", Samples: b.probes},
	}, dep.stop()
}
