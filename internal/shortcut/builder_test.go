package shortcut

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// testFamilies mirrors the internal/bench workload families (grid, torus,
// k-trees, wheel rim, the Lemma 3.2 lower-bound rows, and a random graph)
// at unit-test sizes.
func testFamilies(t *testing.T) []struct {
	name string
	g    *graph.Graph
	p    *partition.Partition
} {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	mk := func(name string, g *graph.Graph, p *partition.Partition, err error) struct {
		name string
		g    *graph.Graph
		p    *partition.Partition
	} {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return struct {
			name string
			g    *graph.Graph
			p    *partition.Partition
		}{name, g, p}
	}
	var fams []struct {
		name string
		g    *graph.Graph
		p    *partition.Partition
	}
	grid := graph.Grid(14, 14)
	gp, err := partition.BFSBlobs(grid, 14, rng)
	fams = append(fams, mk("grid", grid, gp, err))
	torus := graph.Torus(10, 10)
	tp, err := partition.BFSBlobs(torus, 10, rng)
	fams = append(fams, mk("torus", torus, tp, err))
	kt := graph.KTree(120, 4, rng)
	kp, err := partition.BFSBlobs(kt, 10, rng)
	fams = append(fams, mk("ktree", kt, kp, err))
	wheel := graph.Wheel(80)
	wp, err := partition.WheelRim(wheel)
	fams = append(fams, mk("wheel", wheel, wp, err))
	lb, err := graph.LowerBound(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := partition.New(lb.G, lb.Rows)
	fams = append(fams, mk("lb", lb.G, lp, err))
	rnd := graph.RandomConnected(90, 200, rng)
	rp, err := partition.BFSBlobs(rnd, 12, rng)
	fams = append(fams, mk("random", rnd, rp, err))
	return fams
}

// shortcutFingerprint hashes the canonical content of a shortcut: covered
// flags and sorted H edge-ID sets, plus the accepted parameters.
func shortcutFingerprint(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "delta=%d c=%d b=%d iters=%d depth=%d;", res.Delta, res.CongestionThreshold,
		res.BlockBudget, res.Iterations, res.TreeDepth)
	for i, hi := range res.Shortcut.H {
		fmt.Fprintf(h, "part %d covered=%v:", i, res.Shortcut.Covered[i])
		for _, e := range hi {
			fmt.Fprintf(h, " %d", e)
		}
		fmt.Fprint(h, ";")
	}
	return h.Sum64()
}

// TestBuilderMatchesReference asserts byte-identical canonical shortcuts
// (same covered parts, same sorted edge-ID sets, same accepted delta' and
// level parameters) between the flat Builder and the preserved map-based
// reference path, with one Builder reused across all families to exercise
// scratch recycling.
func TestBuilderMatchesReference(t *testing.T) {
	b := NewBuilder()
	for _, f := range testFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			want, err := BuildReference(f.g, f.p, Options{})
			if err != nil {
				t.Fatalf("reference Build: %v", err)
			}
			got, err := b.Build(f.g, f.p, Options{})
			if err != nil {
				t.Fatalf("Builder.Build: %v", err)
			}
			if got.Delta != want.Delta || got.CongestionThreshold != want.CongestionThreshold ||
				got.BlockBudget != want.BlockBudget || got.Iterations != want.Iterations ||
				got.TreeDepth != want.TreeDepth {
				t.Fatalf("parameters differ: got (delta=%d c=%d b=%d iters=%d depth=%d), want (delta=%d c=%d b=%d iters=%d depth=%d)",
					got.Delta, got.CongestionThreshold, got.BlockBudget, got.Iterations, got.TreeDepth,
					want.Delta, want.CongestionThreshold, want.BlockBudget, want.Iterations, want.TreeDepth)
			}
			if !reflect.DeepEqual(got.Shortcut.Covered, want.Shortcut.Covered) {
				t.Fatal("coverage differs from reference")
			}
			if !reflect.DeepEqual(got.Shortcut.H, want.Shortcut.H) {
				t.Fatal("H edge sets differ from reference")
			}
			if err := got.Shortcut.Validate(); err != nil {
				t.Fatalf("Builder shortcut invalid: %v", err)
			}
		})
	}
}

// TestBuildPartialMatchesReference checks the single-sweep primitive: cut
// set, bipartite degrees, I_e part lists, and the Case (I) shortcut must
// match the map path exactly; representatives must sit at the same
// (minimal) depth, though depth ties may resolve to different nodes.
func TestBuildPartialMatchesReference(t *testing.T) {
	for _, f := range testFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			tr, err := tree.FromBFS(f.g, graph.ChooseRoot(f.g))
			if err != nil {
				t.Fatal(err)
			}
			depth := tr.MaxDepth()
			if depth < 1 {
				depth = 1
			}
			for _, cb := range [][2]int{{2, 0}, {depth, 1}, {2 * depth, 4}} {
				c, b := cb[0], cb[1]
				want, err := buildPartialReference(f.g, tr, f.p, c, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildPartial(f.g, tr, f.p, c, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Overcongested, want.Overcongested) {
					t.Fatalf("c=%d b=%d: overcongested sets differ", c, b)
				}
				if !reflect.DeepEqual(got.DegB, want.DegB) {
					t.Fatalf("c=%d b=%d: DegB differs", c, b)
				}
				if !reflect.DeepEqual(got.Shortcut.Covered, want.Shortcut.Covered) ||
					!reflect.DeepEqual(got.Shortcut.H, want.Shortcut.H) {
					t.Fatalf("c=%d b=%d: Case (I) shortcut differs", c, b)
				}
				if len(got.IE) != len(want.IE) {
					t.Fatalf("c=%d b=%d: IE covers %d edges, want %d", c, b, len(got.IE), len(want.IE))
				}
				for e, wreps := range want.IE {
					greps := got.IE[e]
					if len(greps) != len(wreps) {
						t.Fatalf("edge %d: %d reps, want %d", e, len(greps), len(wreps))
					}
					for i := range wreps {
						if greps[i].Part != wreps[i].Part {
							t.Fatalf("edge %d entry %d: part %d, want %d", e, i, greps[i].Part, wreps[i].Part)
						}
						if tr.Depth[greps[i].Rep] != tr.Depth[wreps[i].Rep] {
							t.Fatalf("edge %d part %d: rep depth %d, want minimal depth %d",
								e, wreps[i].Part, tr.Depth[greps[i].Rep], tr.Depth[wreps[i].Rep])
						}
					}
				}
			}
		})
	}
}

// TestParallelDoublingMatchesSequential pins the speculative search: under
// fixed seeds, every Parallelism setting must accept the same delta' and
// produce the same canonical shortcut fingerprint as the sequential
// search. CI additionally runs this test under -race.
func TestParallelDoublingMatchesSequential(t *testing.T) {
	b := NewBuilder()
	for _, f := range testFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			seq, err := b.Build(f.g, f.p, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			want := shortcutFingerprint(seq)
			for _, par := range []int{0, 2, runtime.GOMAXPROCS(0) + 3} {
				got, err := b.Build(f.g, f.p, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if got.Delta != seq.Delta {
					t.Fatalf("parallelism %d accepted delta' %d, sequential %d", par, got.Delta, seq.Delta)
				}
				if fp := shortcutFingerprint(got); fp != want {
					t.Fatalf("parallelism %d fingerprint %016x, sequential %016x", par, fp, want)
				}
			}
		})
	}
}

// TestParallelSearchDeeperDoubling forces a multi-level doubling search
// (tight factors make low delta' levels fail) so the speculative waves
// actually race and reject levels before accepting.
func TestParallelSearchDeeperDoubling(t *testing.T) {
	lb, err := graph.LowerBound(6, 24)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(lb.G, lb.Rows)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CongestionFactor: 1, BlockFactor: 1}
	seqOpts := opts
	seqOpts.Parallelism = 1
	seq, err := NewBuilder().Build(lb.G, p, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Delta < 2 {
		t.Fatalf("test instance accepted at delta'=%d; need a deeper doubling search", seq.Delta)
	}
	par, err := NewBuilder().Build(lb.G, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if shortcutFingerprint(par) != shortcutFingerprint(seq) {
		t.Fatalf("parallel accepted delta'=%d with different canonical shortcut than sequential delta'=%d",
			par.Delta, seq.Delta)
	}
}

// TestBuilderAllocReduction is the acceptance gate for the flat Builder:
// a reused Builder must allocate at least 2x fewer objects per Build than
// the preserved map-based reference path on a grid workload.
func TestBuilderAllocReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Grid(32, 32)
	p, err := partition.BFSBlobs(g, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := testing.AllocsPerRun(5, func() {
		if _, err := BuildReference(g, p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	b := NewBuilder()
	b.Build(g, p, Options{Parallelism: 1}) // warm the scratch
	flat := testing.AllocsPerRun(5, func() {
		if _, err := b.Build(g, p, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: reference %.0f, builder %.0f (%.1fx)", ref, flat, ref/flat)
	if flat*2 > ref {
		t.Errorf("builder allocates %.0f objects/op, want <= half of reference's %.0f", flat, ref)
	}
}

// TestBuilderResultsSurviveReuse guards the no-aliasing contract: results
// returned by earlier Build calls must stay intact after the builder's
// scratch is reused by later calls on other inputs.
func TestBuilderResultsSurviveReuse(t *testing.T) {
	b := NewBuilder()
	fams := testFamilies(t)
	type snap struct {
		res *Result
		fp  uint64
	}
	var snaps []snap
	for _, f := range fams {
		res, err := b.Build(f.g, f.p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		snaps = append(snaps, snap{res: res, fp: shortcutFingerprint(res)})
	}
	for i, f := range fams {
		if fp := shortcutFingerprint(snaps[i].res); fp != snaps[i].fp {
			t.Errorf("%s: result mutated by later builds on the same Builder", f.name)
		}
		if err := snaps[i].res.Shortcut.Validate(); err != nil {
			t.Errorf("%s: result invalid after reuse: %v", f.name, err)
		}
	}
}

// TestCollectStages asserts that stage collection is timing-only — the
// canonical shortcut is identical with and without it, in both the
// sequential and speculative search — and that the breakdown carries every
// expected stage: tree construction, one level stage per LevelsTried entry,
// and the accepted level's sweep/assemble split.
func TestCollectStages(t *testing.T) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, f := range testFamilies(t) {
			plain, err := Build(f.g, f.p, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", f.name, par, err)
			}
			staged, err := Build(f.g, f.p, Options{Parallelism: par, CollectStages: true})
			if err != nil {
				t.Fatalf("%s par=%d staged: %v", f.name, par, err)
			}
			if shortcutFingerprint(plain) != shortcutFingerprint(staged) {
				t.Errorf("%s par=%d: CollectStages changed the canonical shortcut", f.name, par)
			}
			if plain.Stages != nil || plain.LevelsTried != nil {
				t.Errorf("%s par=%d: stages recorded without CollectStages", f.name, par)
			}
			if len(staged.LevelsTried) == 0 ||
				staged.LevelsTried[len(staged.LevelsTried)-1] != staged.Delta {
				t.Errorf("%s par=%d: LevelsTried %v does not end at accepted delta %d",
					f.name, par, staged.LevelsTried, staged.Delta)
			}
			names := make(map[string]int)
			for _, st := range staged.Stages {
				names[st.Name]++
				if st.Dur < 0 || st.Start < 0 {
					t.Errorf("%s par=%d: negative timing in stage %+v", f.name, par, st)
				}
			}
			for _, want := range []string{"choose_root", "bfs_tree", "sweep", "assemble"} {
				if names[want] != 1 {
					t.Errorf("%s par=%d: stage %q appears %d times, want 1 (stages %v)",
						f.name, par, want, names[want], staged.Stages)
				}
			}
			for _, dl := range staged.LevelsTried {
				if names[levelStageName(dl)] != 1 {
					t.Errorf("%s par=%d: no stage for tried level %d", f.name, par, dl)
				}
			}
		}
	}
}

// TestBuildsShareGraphTree: builds on one graph by separate Builders share
// the graph's BFS tree arrays but not the Rooted header, and a new edge
// makes the next build root a new BFS.
func TestBuildsShareGraphTree(t *testing.T) {
	g := graph.Grid(8, 8)
	p, err := partition.BFSBlobs(g, 8, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *tree.Rooted {
		t.Helper()
		res, err := NewBuilder().Build(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Shortcut.Tree
	}
	sameArrays := func(a, b *tree.Rooted) bool {
		return &a.Parent[0] == &b.Parent[0] && &a.ParentEdge[0] == &b.ParentEdge[0] &&
			&a.Depth[0] == &b.Depth[0] && &a.Order[0] == &b.Order[0]
	}
	t1, t2 := build(), build()
	if t1 == t2 {
		t.Fatal("two builds share one Rooted header")
	}
	if !sameArrays(t1, t2) {
		t.Fatal("two builds on one graph carry separate tree arrays")
	}
	// The chord joins opposite corners: the next tree must see it.
	g.AddEdge(0, 63)
	t3 := build()
	if sameArrays(t1, t3) {
		t.Fatal("build after AddEdge reused the old tree")
	}
	want, err := tree.FromBFS(g, t3.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t3.Parent, want.Parent) || !reflect.DeepEqual(t3.Depth, want.Depth) {
		t.Fatal("tree after AddEdge is not a BFS of the new graph")
	}
	// Adjacent nodes' BFS depths differ by at most one; before the chord
	// the corners sat 6 and 8 deep.
	if d := t3.Depth[0] - t3.Depth[63]; d < -1 || d > 1 {
		t.Errorf("tree after AddEdge ignores the new edge: depths %d, %d", t3.Depth[0], t3.Depth[63])
	}
}

// memoizedBuildAllocs pins the allocations of a fresh Builder's sequential
// Build on grid:64x64 blobs:32 once the graph's tree is memoized. A build
// that ran the root search and rooted a BFS tree of its own would allocate
// 12 more, so a count over the pin means a build stopped reading the memo.
const memoizedBuildAllocs = 474

func TestFreshBuilderAllocsOnMemoizedGraph(t *testing.T) {
	g := graph.Grid(64, 64)
	p, err := partition.BFSBlobs(g, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	graph.ChooseRoot(g)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewBuilder().Build(g, p, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fresh-Builder Build on a memoized grid:64x64: %.0f allocs/op", allocs)
	if allocs > memoizedBuildAllocs {
		t.Errorf("fresh-Builder Build allocates %.0f objects/op, want <= %d", allocs, memoizedBuildAllocs)
	}
}
