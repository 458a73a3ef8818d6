package cli

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
)

// blobsFresh is the blobs construction as it stood before ParsePartition
// pooled its generator: a fresh rand.New(rand.NewSource(seed)), the seeds
// from rng.Perm(n), and a flood over freshly allocated arrays. It returns
// PartOf (part i is the nodes labeled i, ascending) and the generator's
// next draw after the Perm.
func blobsFresh(g *graph.Graph, k int, seed int64) (partOf []int, next int64) {
	rng := rand.New(rand.NewSource(seed))
	owner := make([]int, g.NumNodes())
	for v := range owner {
		owner[v] = -1
	}
	var queue []int
	for i, s := range rng.Perm(g.NumNodes())[:k] {
		owner[s] = i
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Neighbors(v) {
			if owner[a.To] == -1 {
				owner[a.To] = owner[v]
				queue = append(queue, a.To)
			}
		}
	}
	return owner, rng.Int63()
}

// checkBlobs fails t unless p is the partition blobsFresh makes.
func checkBlobs(t *testing.T, how string, p *partition.Partition, want []int) {
	t.Helper()
	if !slices.Equal(p.PartOf, want) {
		t.Fatalf("%s: PartOf differs from rand.NewSource + Perm", how)
	}
	for i, part := range p.Parts {
		for j, v := range part {
			if want[v] != i || (j > 0 && part[j-1] >= v) {
				t.Fatalf("%s: part %d = %v is not the nodes labeled %d, ascending", how, i, part, i)
			}
		}
	}
}

// TestBlobsMatchFreshGenerator holds blobs partitions made through
// ParsePartition's pooled generator and BFSBlobs' pooled Perm scratch to
// the construction they replaced, on every ParseGraph family (ktree and
// random built at the seed too) at seeds 0-199. One explicit generator is
// reseeded in an alternating order: a reseeded Rand carries no draw from
// one seed into the next, and BFSBlobs leaves it where Perm would, which
// callers that draw on (the experiments) rely on. The families run
// concurrently on the shared pools; CI runs this under -race.
func TestBlobsMatchFreshGenerator(t *testing.T) {
	for _, c := range []struct {
		spec string
		k    int
	}{
		{"grid:8x8", 6}, {"torus:6x6", 5}, {"wheel:12", 3}, {"cycle:20", 4},
		{"path:15", 3}, {"complete:10", 4}, {"ktree:40,3", 5},
		{"random:30,60", 6}, {"lb:5,12", 8},
	} {
		t.Run(c.spec, func(t *testing.T) {
			t.Parallel()
			spec := "blobs:" + strconv.Itoa(c.k)
			reused := rand.New(rand.NewSource(0))
			for i := range 200 {
				// 0, 199, 1, 198, ...: each reseed jumps far from the last.
				seed := int64(i / 2)
				if i%2 == 1 {
					seed = 199 - seed
				}
				g, _, err := ParseGraph(c.spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, next := blobsFresh(g, c.k, seed)
				p, err := ParsePartition(g, spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				checkBlobs(t, fmt.Sprintf("ParsePartition seed %d", seed), p, want)
				reused.Seed(seed)
				if p, err = partition.BFSBlobs(g, c.k, reused); err != nil {
					t.Fatal(err)
				}
				checkBlobs(t, fmt.Sprintf("reseeded BFSBlobs seed %d", seed), p, want)
				if got := reused.Int63(); got != next {
					t.Fatalf("seed %d: the draw after BFSBlobs is %d, after Perm %d", seed, got, next)
				}
			}
		})
	}
}
