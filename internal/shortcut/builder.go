package shortcut

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// stageClock collects the Result.Stages breakdown of one Build call. A nil
// clock (Options.CollectStages unset) makes every method a no-op, so the
// uninstrumented path pays only nil checks. Methods other than since must
// only be called from the coordinating goroutine; speculative levels read
// the clock through since (start is immutable) and write their own
// levelTimes slots instead.
type stageClock struct {
	start  time.Time
	stages []Stage
}

//locshort:nondeterministic-ok timing-only instrumentation: stage clocks feed traces and metrics, never the construction
func newStageClock() *stageClock { return &stageClock{start: time.Now()} }

//locshort:nondeterministic-ok timing-only instrumentation: stage clocks feed traces and metrics, never the construction
func (sc *stageClock) since() time.Duration {
	if sc == nil {
		return 0
	}
	return time.Since(sc.start)
}

func (sc *stageClock) add(name string, start, dur time.Duration) {
	if sc == nil {
		return
	}
	sc.stages = append(sc.stages, Stage{Name: name, Start: start, Dur: dur})
}

// span times an inline stage: call at the stage start, invoke the returned
// func at its end.
//
//locshort:nondeterministic-ok timing-only instrumentation: stage clocks feed traces and metrics, never the construction
func (sc *stageClock) span(name string) func() {
	if sc == nil {
		return func() {}
	}
	begin := time.Since(sc.start)
	return func() { sc.add(name, begin, time.Since(sc.start)-begin) }
}

// levelTimes is one doubling-search level's timing slot: its start offset
// and total duration, plus the cumulative sweep/assemble split across the
// level's Observation 2.7 iterations. Each speculative level owns its slot;
// the coordinator reads them only after the wave's WaitGroup barrier.
type levelTimes struct {
	start    time.Duration
	total    time.Duration
	sweep    time.Duration
	assemble time.Duration
}

func levelStageName(delta int) string { return fmt.Sprintf("level(d=%d)", delta) }

// Builder is the flat-state construction core behind Build: it owns every
// piece of scratch memory the Theorem 3.1 overcongested-edge process and
// the Observation 2.7 loop need, so repeated constructions — the doubling
// search's levels, the service layer's cold builds, benchmark loops — stop
// paying per-call allocation for per-node maps.
//
// Three ideas replace the map-based bookkeeping of the original path
// (preserved in reference_test.go and tested equivalent):
//
//   - Part sets are open-addressing (part, representative) tables drawn
//     from a per-builder size-class pool, merged small-into-large along
//     the bottom-up sweep exactly like the original per-node maps.
//   - Component roots, bipartite degrees, and ancestor-walk dedup use
//     dense epoch-stamped slices keyed by node and part ID, cleared by
//     bumping an epoch instead of reallocating.
//   - The doubling search over delta' is speculative: up to
//     Options.Parallelism levels race on independent levelStates, and the
//     smallest level that completes is accepted — the same level, and the
//     same canonical shortcut, the sequential search accepts.
//
// A Builder is NOT safe for concurrent use; it is itself the unit pooled
// by concurrent callers (internal/service keeps a sync.Pool of Builders).
// Everything a Build call returns — the Result, the Shortcut, its H
// slices — is freshly allocated and never aliased by the builder's
// scratch, so results stay valid across subsequent Build calls on the
// same Builder. The BFS tree is the graph's shared read-only tree
// (tree.Shared) under a header of the result's own.
type Builder struct {
	states []*levelState
}

// NewBuilder returns an empty Builder; scratch is allocated lazily and
// grows to the largest (graph, partition) seen.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) state(i int) *levelState {
	for len(b.states) <= i {
		b.states = append(b.states, new(levelState))
	}
	return b.states[i]
}

// Build is Builder-backed shortcut construction; see the package-level
// Build for the contract. The accepted delta', covered parts, and
// canonical H edge sets are identical to the sequential map-based path
// for every input and any Parallelism setting.
func (b *Builder) Build(g *graph.Graph, p *partition.Partition, opts Options) (*Result, error) {
	if p.NumParts() == 0 {
		return nil, fmt.Errorf("shortcut: no parts")
	}
	if opts.Certify && opts.Rng == nil {
		return nil, fmt.Errorf("shortcut: Certify requires Options.Rng")
	}
	var sc *stageClock
	if opts.CollectStages {
		sc = newStageClock()
	}
	t := opts.Tree
	if t == nil {
		// The graph memoizes its root and BFS tree: the first build on a
		// graph pays the root search and the BFS inside choose_root, and
		// every build after it times two memo reads.
		done := sc.span("choose_root")
		graph.ChooseRoot(g)
		done()
		done = sc.span("bfs_tree")
		var err error
		t, err = tree.Shared(g)
		done()
		if err != nil {
			return nil, fmt.Errorf("shortcut: build tree: %w", err)
		}
	}
	if t.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("shortcut: tree has %d nodes, graph has %d", t.NumNodes(), g.NumNodes())
	}
	depth := t.MaxDepth()
	if depth < 1 {
		depth = 1
	}
	cf := opts.CongestionFactor
	if cf == 0 {
		cf = 8
	}
	bf := opts.BlockFactor
	if bf == 0 {
		bf = 8
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = CeilLog2(p.NumParts()) + 2
	}
	maxDelta := opts.MaxDelta
	if maxDelta == 0 {
		maxDelta = g.NumNodes()
	}

	res := &Result{TreeDepth: depth}
	fixed := opts.Delta != 0
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// The speculative search needs independent levels: a fixed delta' has
	// only one, and certificate extraction consumes Options.Rng draws in
	// failed-level order, which only the sequential schedule preserves.
	if fixed || opts.Certify || par == 1 {
		return b.buildSequential(g, t, p, res, opts, cf, bf, maxIter, maxDelta, depth, sc)
	}

	for delta := 1; ; {
		// One wave: race the next up-to-par levels of the doubling search.
		var levels []int
		next := delta
		for len(levels) < par && next <= maxDelta {
			levels = append(levels, next)
			next *= 2
		}
		if len(levels) == 0 {
			return nil, fmt.Errorf("shortcut: doubling search exhausted at delta' = %d (max %d)", delta, maxDelta)
		}
		type outcome struct {
			s     *Shortcut
			iters int
			ok    bool
			err   error
		}
		outs := make([]outcome, len(levels))
		var lts []levelTimes
		if sc != nil {
			lts = make([]levelTimes, len(levels))
		}
		// accepted is the lowest wave index that has completed with full
		// coverage; higher levels poll it and abandon their (moot) runs.
		var accepted atomic.Int32
		accepted.Store(int32(len(levels)))
		var wg sync.WaitGroup
		for i, dl := range levels {
			ls := b.state(i)
			wg.Add(1)
			go func(i int, dl int, ls *levelState) {
				defer wg.Done()
				var lt *levelTimes
				if lts != nil {
					lt = &lts[i]
					lt.start = sc.since()
				}
				s, iters, _, ok, err := ls.runLevel(g, t, p, cf*dl*depth, bf*dl, maxIter, false, &accepted, int32(i), lt)
				if lt != nil {
					lt.total = sc.since() - lt.start
				}
				outs[i] = outcome{s: s, iters: iters, ok: ok, err: err}
				if ok {
					for {
						cur := accepted.Load()
						if int32(i) >= cur || accepted.CompareAndSwap(cur, int32(i)) {
							break
						}
					}
				}
			}(i, dl, ls)
		}
		wg.Wait()
		// Scan in level order: the smallest accepted level wins, exactly
		// as in the sequential search. Levels below it ran to completion
		// (they never abandon), so their errors, had the sequential
		// search hit them first, surface here too.
		for i, dl := range levels {
			o := outs[i]
			if o.err != nil {
				return nil, o.err
			}
			if sc != nil {
				res.LevelsTried = append(res.LevelsTried, dl)
				sc.add(levelStageName(dl), lts[i].start, lts[i].total)
				if o.ok {
					sc.add("sweep", lts[i].start, lts[i].sweep)
					sc.add("assemble", lts[i].start, lts[i].assemble)
					res.Stages = sc.stages
				}
			}
			if o.ok {
				res.Shortcut = o.s
				res.Delta = dl
				res.CongestionThreshold = cf * dl * depth
				res.BlockBudget = bf * dl
				res.Iterations = o.iters
				return res, nil
			}
		}
		delta = next
	}
}

// buildSequential runs the classic one-level-at-a-time doubling search on
// the builder's first levelState, including the certifying variant.
func (b *Builder) buildSequential(g *graph.Graph, t *tree.Rooted, p *partition.Partition, res *Result,
	opts Options, cf, bf, maxIter, maxDelta, depth int, sc *stageClock) (*Result, error) {
	certAttempts := opts.CertAttempts
	if certAttempts == 0 {
		certAttempts = 8 * depth
	}
	ls := b.state(0)
	start := opts.Delta
	fixed := start != 0
	if !fixed {
		start = 1
	}
	for delta := start; ; delta *= 2 {
		if !fixed && delta > maxDelta {
			return nil, fmt.Errorf("shortcut: doubling search exhausted at delta' = %d (max %d)", delta, maxDelta)
		}
		c := cf * delta * depth
		bb := bf * delta
		var lt *levelTimes
		if sc != nil {
			lt = &levelTimes{start: sc.since()}
		}
		s, iters, lastPartial, ok, err := ls.runLevel(g, t, p, c, bb, maxIter, opts.Certify, nil, 0, lt)
		if sc != nil {
			lt.total = sc.since() - lt.start
			res.LevelsTried = append(res.LevelsTried, delta)
			sc.add(levelStageName(delta), lt.start, lt.total)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			if sc != nil {
				sc.add("sweep", lt.start, lt.sweep)
				sc.add("assemble", lt.start, lt.assemble)
				res.Stages = sc.stages
			}
			res.Shortcut = s
			res.Delta = delta
			res.CongestionThreshold = c
			res.BlockBudget = bb
			res.Iterations = iters
			return res, nil
		}
		if opts.Certify && lastPartial != nil {
			if m, found := ExtractCertificate(g, t, p, lastPartial, float64(delta), certAttempts, opts.Rng); found {
				res.Certificates = append(res.Certificates, m)
				res.FailedDeltas = append(res.FailedDeltas, delta)
			}
		}
		if fixed {
			return res, fmt.Errorf("shortcut: delta' = %d: %w", opts.Delta, ErrDeltaTooSmall)
		}
	}
}

// levelState is the scratch memory for one run of the Observation 2.7
// level loop: the per-node part sets of the bottom-up sweep, the cut
// indicator, and the epoch-stamped slices of the Case (I) harvest. One
// levelState serves one goroutine; the Builder keeps one per speculative
// level.
type levelState struct {
	sets     setPool
	setOf    []*partSet
	cutAbove []bool
	compRoot []int32
	// stampNode dedups ancestor walks; stampRoot dedups (part, component)
	// pairs when counting bipartite degrees. Both are compared against
	// epoch values handed out by nextEpoch, so "clearing" them is one
	// increment.
	stampNode []int32
	stampRoot []int32
	epoch     int32
	active    []bool
	// hBuf accumulates one part's H edges before they are copied into an
	// exact-size result slice, so growth reallocation is paid once per
	// levelState instead of per part.
	hBuf []int
}

// prepare sizes the scratch for an n-node graph. Stamp slices keep their
// stale contents: epochs only grow, so stale stamps never collide.
func (ls *levelState) prepare(n int) {
	if cap(ls.setOf) < n {
		ls.setOf = make([]*partSet, n)
		ls.cutAbove = make([]bool, n)
		ls.compRoot = make([]int32, n)
		ls.stampNode = make([]int32, n)
		ls.stampRoot = make([]int32, n)
		ls.epoch = 0
		return
	}
	ls.setOf = ls.setOf[:n]
	ls.cutAbove = ls.cutAbove[:n]
	ls.compRoot = ls.compRoot[:n]
	ls.stampNode = ls.stampNode[:n]
	ls.stampRoot = ls.stampRoot[:n]
}

func (ls *levelState) nextEpoch() int32 {
	if ls.epoch == math.MaxInt32 {
		for i := range ls.stampNode {
			ls.stampNode[i] = 0
			ls.stampRoot[i] = 0
		}
		ls.epoch = 0
	}
	ls.epoch++
	return ls.epoch
}

// runLevel runs the Observation 2.7 loop at a fixed (c, b) level. cancel,
// when non-nil, is the speculative search's accepted-level watermark: once
// a lower level accepts, this run abandons (its outcome is moot). lt, when
// non-nil, accumulates the sweep/assemble wall-clock split across
// iterations; timing never changes what is built. The returned Shortcut
// and Partial are freshly allocated; scratch never escapes.
func (ls *levelState) runLevel(g *graph.Graph, t *tree.Rooted, p *partition.Partition, c, b, maxIter int,
	certify bool, cancel *atomic.Int32, self int32, lt *levelTimes) (*Shortcut, int, *Partial, bool, error) {
	if c < 1 {
		return nil, 0, nil, false, fmt.Errorf("shortcut: congestion threshold %d < 1", c)
	}
	if b < 0 {
		return nil, 0, nil, false, fmt.Errorf("shortcut: negative block budget %d", b)
	}
	k := p.NumParts()
	ls.prepare(g.NumNodes())
	s := &Shortcut{
		G:       g,
		Parts:   p,
		Tree:    t,
		H:       make([][]int, k),
		Covered: make([]bool, k),
	}
	if cap(ls.active) < k {
		ls.active = make([]bool, k)
	}
	active := ls.active[:k]
	for i := range active {
		active[i] = true
	}
	remaining := k
	var last *Partial
	for iter := 1; iter <= maxIter; iter++ {
		if cancel != nil && cancel.Load() < self {
			return nil, 0, nil, false, nil
		}
		var pr *Partial
		if certify {
			pr = &Partial{IE: make(map[int][]PartRep), DegB: make([]int, k)}
			last = pr
		}
		var progress int
		if lt == nil {
			ls.sweep(t, p, c, active, pr)
			progress = ls.assemble(g, t, p, active, b, s, true)
		} else {
			t0 := time.Now() //locshort:nondeterministic-ok timing-only: levelTimes feeds the stage trace, never the construction
			ls.sweep(t, p, c, active, pr)
			t1 := time.Now() //locshort:nondeterministic-ok timing-only: levelTimes feeds the stage trace, never the construction
			progress = ls.assemble(g, t, p, active, b, s, true)
			lt.sweep += t1.Sub(t0)
			lt.assemble += time.Since(t1) //locshort:nondeterministic-ok timing-only: levelTimes feeds the stage trace, never the construction
		}
		remaining -= progress
		if remaining == 0 {
			return s, iter, last, true, nil
		}
		if progress == 0 {
			return s, iter, last, false, nil
		}
	}
	return s, maxIter, last, false, nil
}

// sweep runs the bottom-up overcongested-edge process, leaving the cut
// indicator in ls.cutAbove. When pr is non-nil it additionally records the
// Partial bookkeeping (set O, I_e with minimal-depth representatives, and
// the sweep-side bipartite degrees) for certificate extraction.
//
// Representatives are kept at minimal depth, ties broken toward the
// smaller node ID — a deterministic choice independent of merge order.
// (The map-based reference breaks depth ties by merge history instead;
// both satisfy the paper's minimal-depth requirement, and the canonical
// shortcut does not depend on representative identity.)
//
//locshort:hotpath
func (ls *levelState) sweep(t *tree.Rooted, p *partition.Partition, c int, active []bool, pr *Partial) {
	for i := range ls.cutAbove {
		ls.cutAbove[i] = false
	}
	depth := t.Depth
	order := t.Order
	for idx := len(order) - 1; idx >= 0; idx-- {
		v := order[idx]
		sv := ls.setOf[v]
		if pi := p.PartOf[v]; pi >= 0 && (active == nil || active[pi]) {
			// v is shallower than every node merged from its children, so
			// it always becomes the representative of its own part.
			sv = ls.insert(sv, int32(pi), int32(v), depth)
		}
		parent := t.Parent[v]
		if parent < 0 {
			if sv != nil {
				ls.sets.put(sv)
			}
			ls.setOf[v] = nil
			continue
		}
		if sv != nil && sv.used >= c {
			// v's parent edge is overcongested: cut it, record I_e.
			ls.cutAbove[v] = true
			if pr != nil {
				e := t.ParentEdge[v]
				pr.Overcongested = append(pr.Overcongested, e)
				reps := make([]PartRep, 0, sv.used)
				for j, key := range sv.keys {
					if key != 0 {
						reps = append(reps, PartRep{Part: int(key - 1), Rep: int(sv.reps[j])})
					}
				}
				//locshort:alloc-ok certificate path: pr is non-nil only on the final iteration of a failed level
				sort.Slice(reps, func(a, b int) bool { return reps[a].Part < reps[b].Part })
				for _, rp := range reps {
					pr.DegB[rp.Part]++
				}
				pr.IE[e] = reps
			}
			ls.sets.put(sv)
			ls.setOf[v] = nil
			continue
		}
		if sv != nil {
			// Merge into the parent, small set into large.
			if sp := ls.setOf[parent]; sp == nil {
				ls.setOf[parent] = sv
			} else {
				if sp.used < sv.used {
					sp, sv = sv, sp
				}
				ls.setOf[parent] = ls.mergeInto(sp, sv, depth)
				ls.sets.put(sv)
			}
		}
		ls.setOf[v] = nil
	}
	if pr != nil {
		sort.Ints(pr.Overcongested)
	}
}

// assemble performs Case (I) of the Theorem 3.1 proof over ls.cutAbove:
// every active part touching at most b non-root components of T\O is
// covered with all its ancestor edges in the forest, written into s. When
// deactivate is set, covered parts are removed from active (the harvest
// step of the level loop). Returns the number of parts covered.
//
//locshort:hotpath
func (ls *levelState) assemble(g *graph.Graph, t *tree.Rooted, p *partition.Partition, active []bool, b int,
	s *Shortcut, deactivate bool) int {
	// Component roots of T\O, top-down.
	compRoot := ls.compRoot
	for _, v := range t.Order {
		if t.Parent[v] == -1 || ls.cutAbove[v] {
			compRoot[v] = int32(v)
		} else {
			compRoot[v] = compRoot[t.Parent[v]]
		}
	}
	progress := 0
	for i := 0; i < p.NumParts(); i++ {
		if active != nil && !active[i] {
			continue
		}
		// Bipartite degree: distinct non-root-component roots touched.
		epoch := ls.nextEpoch()
		degB := 0
		for _, v := range p.Parts[i] {
			r := compRoot[v]
			if !ls.cutAbove[r] {
				continue // global root component does not count toward deg_B
			}
			if ls.stampRoot[r] != epoch {
				ls.stampRoot[r] = epoch
				degB++
			}
		}
		if degB > b {
			continue
		}
		s.Covered[i] = true
		progress++
		epoch = ls.nextEpoch()
		hb := ls.hBuf[:0]
		for _, u := range p.Parts[i] {
			for u != -1 && !ls.cutAbove[u] && t.Parent[u] != -1 && ls.stampNode[u] != epoch {
				ls.stampNode[u] = epoch
				hb = append(hb, t.ParentEdge[u])
				u = t.Parent[u]
			}
		}
		ls.hBuf = hb
		sort.Ints(hb)
		h := make([]int, len(hb))
		copy(h, hb)
		s.H[i] = h
		if deactivate {
			active[i] = false
		}
	}
	return progress
}

// minSetClass is the log2 capacity of the smallest pooled part set.
const minSetClass = 3

// partSet is an open-addressing hash table from part ID to its
// minimal-depth representative node: keys hold part+1 (0 marks an empty
// slot), reps the representative. Capacity is a power of two, load is kept
// under 3/4.
type partSet struct {
	keys []int32
	reps []int32
	used int
}

// setPool recycles partSets by log2-capacity size class. Sets are zeroed
// on release so acquisition is O(1).
type setPool struct {
	free [][]*partSet
}

//locshort:hotpath
func (sp *setPool) get(class int) *partSet {
	for len(sp.free) <= class {
		sp.free = append(sp.free, nil)
	}
	if l := sp.free[class]; len(l) > 0 {
		s := l[len(l)-1]
		sp.free[class] = l[:len(l)-1]
		return s
	}
	n := 1 << class
	return &partSet{keys: make([]int32, n), reps: make([]int32, n)}
}

//locshort:hotpath
func (sp *setPool) put(s *partSet) {
	for i := range s.keys {
		s.keys[i] = 0
	}
	s.used = 0
	sp.free[bits.TrailingZeros(uint(len(s.keys)))] = append(sp.free[bits.TrailingZeros(uint(len(s.keys)))], s)
}

// insert adds (part, rep) to s (allocating it if nil), keeping the
// minimal-depth, minimal-ID representative on conflicts, and returns the
// (possibly grown) set.
//
//locshort:hotpath
func (ls *levelState) insert(s *partSet, part, rep int32, depth []int) *partSet {
	if s == nil {
		s = ls.sets.get(minSetClass)
	} else if 4*(s.used+1) > 3*len(s.keys) {
		s = ls.grow(s)
	}
	mask := uint32(len(s.keys) - 1)
	key := part + 1
	h := (uint32(part) * 0x9E3779B1) & mask
	for {
		switch s.keys[h] {
		case 0:
			s.keys[h] = key
			s.reps[h] = rep
			s.used++
			return s
		case key:
			cur := s.reps[h]
			if depth[rep] < depth[cur] || (depth[rep] == depth[cur] && rep < cur) {
				s.reps[h] = rep
			}
			return s
		}
		h = (h + 1) & mask
	}
}

// grow rehashes s into a set of twice the capacity and recycles s.
//
//locshort:hotpath
func (ls *levelState) grow(s *partSet) *partSet {
	bigger := ls.sets.get(bits.TrailingZeros(uint(len(s.keys))) + 1)
	mask := uint32(len(bigger.keys) - 1)
	for j, key := range s.keys {
		if key == 0 {
			continue
		}
		h := (uint32(key-1) * 0x9E3779B1) & mask
		for bigger.keys[h] != 0 {
			h = (h + 1) & mask
		}
		bigger.keys[h] = key
		bigger.reps[h] = s.reps[j]
	}
	bigger.used = s.used
	ls.sets.put(s)
	return bigger
}

// mergeInto inserts every entry of src into dst and returns the (possibly
// grown) dst. Entries combine by the minimal-depth, minimal-ID rule.
//
//locshort:hotpath
func (ls *levelState) mergeInto(dst, src *partSet, depth []int) *partSet {
	for j, key := range src.keys {
		if key != 0 {
			dst = ls.insert(dst, key-1, src.reps[j], depth)
		}
	}
	return dst
}

// statePool serves the stateless package-level entry points (BuildPartial,
// AssembleFromCuts), which borrow a levelState per call; Build goes
// through a Builder instead.
var statePool = sync.Pool{New: func() any { return new(levelState) }}
