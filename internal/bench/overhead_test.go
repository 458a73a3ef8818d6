package bench

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// stageOverheadMax bounds the cost of Options.CollectStages, which the
// daemon's tracing turns on for every cold build: the median staged/plain
// ratio of a build pair may not exceed it.
const stageOverheadMax = 1.025

// TestStageCollectionOverhead holds stage collection to 2.5% of the build
// it traces. It times grid:64x64 blobs:64 builds on one warm Builder, the
// way the engine's pooled cold builds run, in pairs of one staged and one
// plain build that alternate which runs first, and gates on the median of
// the per-pair ratios. Load that slows both builds of a pair cancels in
// its ratio; a best-of reading per variant instead moves with whichever
// variant met the quietest moment, so it is only logged. The root search,
// the BFS tree and the Builder's scratch are paid before the first timed
// build, so both variants time the construction alone.
func TestStageCollectionOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("times 6000 grid:64x64 builds; skipped with -short")
	}
	g := graph.Grid(64, 64)
	p, err := partition.BFSBlobs(g, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	graph.ChooseRoot(g)
	b := shortcut.NewBuilder()
	build := func(stages bool) time.Duration {
		start := time.Now()
		if _, err := b.Build(g, p, shortcut.Options{CollectStages: stages}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	build(false)

	const pairs = 3000
	ratios := make([]float64, pairs)
	bestPlain, bestStaged := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := range ratios {
		var plain, staged time.Duration
		if i%2 == 0 {
			plain, staged = build(false), build(true)
		} else {
			staged, plain = build(true), build(false)
		}
		ratios[i] = float64(staged) / float64(plain)
		bestPlain, bestStaged = min(bestPlain, plain), min(bestStaged, staged)
	}
	slices.Sort(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	t.Logf("stage collection on grid:64x64 blobs:64, %d pairs: median %+.2f%%; best-of staged %v, plain %v (%+.2f%%)",
		pairs, 100*(median-1), bestStaged, bestPlain, 100*(float64(bestStaged)/float64(bestPlain)-1))
	if median > stageOverheadMax {
		t.Errorf("stage collection costs %+.2f%% of a build in the median pair, over the %+.1f%% bound",
			100*(median-1), 100*(stageOverheadMax-1))
	}
}
