package cluster

import (
	"math/rand"
	"testing"

	"locshort/internal/service"
)

func mustRing(t *testing.T, nodes []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(nodes, vnodes)
	if err != nil {
		t.Fatalf("NewRing(%v, %d): %v", nodes, vnodes, err)
	}
	return r
}

// sampleKeys returns deterministic pseudo-random fingerprints: the keyspace
// positions real shortcut keys occupy (FNV-1a outputs are uniform).
func sampleKeys(n int, seed int64) []service.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]service.Fingerprint, n)
	for i := range keys {
		keys[i] = service.Fingerprint(rng.Uint64())
	}
	return keys
}

// TestRingBalance pins the satellite requirement: at 3 nodes x 64 vnodes,
// primary ownership is within 5% of even — both by keyspace share and by
// sampled key counts — across several membership sets, so the bound is a
// property of the construction, not of one lucky node list.
func TestRingBalance(t *testing.T) {
	memberships := [][]string{
		{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"},
		{"127.0.0.1:8080", "127.0.0.1:8081", "127.0.0.1:8082"},
		{"node-a.internal:9000", "node-b.internal:9000", "node-c.internal:9000"},
		{"a:1", "b:1", "c:1"},
	}
	const vnodes = 64
	for _, nodes := range memberships {
		r := mustRing(t, nodes, vnodes)
		want := 1.0 / float64(len(nodes))
		shareSum := 0.0
		for _, n := range nodes {
			share := r.Share(n)
			shareSum += share
			if dev := share - want; dev > 0.05 || dev < -0.05 {
				t.Errorf("nodes %v: node %s owns share %.4f, want %.4f +/- 0.05",
					nodes, n, share, want)
			}
		}
		if shareSum < 0.999 || shareSum > 1.001 {
			t.Errorf("nodes %v: shares sum to %.6f, want 1", nodes, shareSum)
		}

		keys := sampleKeys(30000, 1)
		counts := make(map[string]int)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		for _, n := range nodes {
			frac := float64(counts[n]) / float64(len(keys))
			if dev := frac - want; dev > 0.05 || dev < -0.05 {
				t.Errorf("nodes %v: node %s owns %.4f of sampled keys, want %.4f +/- 0.05",
					nodes, n, frac, want)
			}
		}
	}
}

// TestRingMinimalMovement pins consistent hashing's defining property:
// removing one node moves only the keys that node owned; every key owned by
// a survivor keeps its owner.
func TestRingMinimalMovement(t *testing.T) {
	nodes := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	const vnodes = 64
	full := mustRing(t, nodes, vnodes)
	keys := sampleKeys(20000, 2)
	for _, dead := range nodes {
		var survivors []string
		for _, n := range nodes {
			if n != dead {
				survivors = append(survivors, n)
			}
		}
		reduced := mustRing(t, survivors, vnodes)
		moved := 0
		for _, k := range keys {
			before, after := full.Owner(k), reduced.Owner(k)
			if before != dead {
				if after != before {
					t.Fatalf("removing %s churned key %s: owner %s -> %s",
						dead, k, before, after)
				}
				continue
			}
			if after == dead {
				t.Fatalf("removed node %s still owns key %s", dead, k)
			}
			moved++
		}
		// The moved fraction should be the dead node's share (±5%), not a
		// full reshuffle.
		frac := float64(moved) / float64(len(keys))
		if share := full.Share(dead); frac-share > 0.05 || share-frac > 0.05 {
			t.Errorf("removing %s moved %.4f of keys, but its share was %.4f",
				dead, frac, share)
		}
	}
}

// TestRingOwners checks replica sets: distinct nodes, primary first,
// clamped to the membership size.
func TestRingOwners(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r := mustRing(t, nodes, 16)
	for _, k := range sampleKeys(2000, 3) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%s, 2) = %v, want 2 nodes", k, owners)
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners(%s)[0] = %s, Owner = %s", k, owners[0], r.Owner(k))
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%s) repeats %s", k, owners[0])
		}
	}
	if got := r.Owners(sampleKeys(1, 4)[0], 10); len(got) != len(nodes) {
		t.Fatalf("Owners(n=10) = %v, want all %d nodes", got, len(nodes))
	}
}

// TestRingDeterminism: ring construction must not depend on input order.
func TestRingDeterminism(t *testing.T) {
	a := mustRing(t, []string{"a:1", "b:1", "c:1"}, 32)
	b := mustRing(t, []string{"c:1", "a:1", "b:1"}, 32)
	if a.ConfigHash() != b.ConfigHash() {
		t.Fatalf("config hash depends on node order: %x vs %x", a.ConfigHash(), b.ConfigHash())
	}
	for _, k := range sampleKeys(1000, 6) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %s depends on node order", k)
		}
	}
}

// TestRingConfigHash: any membership or vnode difference must change the
// digest — it is the split-brain guard.
func TestRingConfigHash(t *testing.T) {
	base := mustRing(t, []string{"a:1", "b:1", "c:1"}, 64)
	diffNodes := mustRing(t, []string{"a:1", "b:1", "d:1"}, 64)
	diffVNodes := mustRing(t, []string{"a:1", "b:1", "c:1"}, 32)
	fewer := mustRing(t, []string{"a:1", "b:1"}, 64)
	for name, other := range map[string]*Ring{
		"different node": diffNodes, "different vnodes": diffVNodes, "fewer nodes": fewer,
	} {
		if base.ConfigHash() == other.ConfigHash() {
			t.Errorf("%s: config hash collides with base", name)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 64); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing([]string{"a:1"}, 0); err == nil {
		t.Error("zero vnodes accepted")
	}
	if _, err := NewRing([]string{""}, 4); err == nil {
		t.Error("empty node address accepted")
	}
}

// TestRingSingleNode: the degenerate ring owns everything.
func TestRingSingleNode(t *testing.T) {
	r := mustRing(t, []string{"only:1"}, 8)
	if s := r.Share("only:1"); s != 1 {
		t.Fatalf("single node share = %v, want 1", s)
	}
	for _, k := range sampleKeys(100, 7) {
		if r.Owner(k) != "only:1" {
			t.Fatalf("single node does not own %s", k)
		}
	}
}
