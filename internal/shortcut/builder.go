package shortcut

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// stageClock collects the Result.Stages breakdown of one Build call. It
// lives on Build's stack and keeps its first stages inline — every stage of
// a build that accepts within four levels — so a traced build copies them
// into its built record and allocates none. A nil clock
// (Options.CollectStages unset) makes since, end and level no-ops, so the
// uninstrumented path pays only nil checks; add and stages are called on a
// live clock only.
type stageClock struct {
	start time.Time
	// sweep and assemble accumulate the current level's split across its
	// Observation 2.7 iterations; level zeroes them.
	sweep, assemble time.Duration
	n               int
	inline          [8]Stage
	more            []Stage // the stages after the inline ones
}

// begin starts the clock and returns it.
//
//locshort:nondeterministic-ok timing-only instrumentation: stage clocks feed traces and metrics, never the construction
func (sc *stageClock) begin() *stageClock {
	sc.start = time.Now()
	return sc
}

//locshort:nondeterministic-ok timing-only instrumentation: stage clocks feed traces and metrics, never the construction
func (sc *stageClock) since() time.Duration {
	if sc == nil {
		return 0
	}
	return time.Since(sc.start)
}

// end records the stage that began at offset begin and ends now.
func (sc *stageClock) end(name string, begin time.Duration) {
	if sc == nil {
		return
	}
	sc.add(name, begin, sc.since()-begin)
}

func (sc *stageClock) add(name string, start, dur time.Duration) {
	st := Stage{Name: name, Start: start, Dur: dur}
	if sc.n < len(sc.inline) {
		sc.inline[sc.n] = st
		sc.n++
		return
	}
	sc.more = append(sc.more, st)
}

// stages appends the recorded stages to dst, in order.
func (sc *stageClock) stages(dst []Stage) []Stage {
	return append(append(dst, sc.inline[:sc.n]...), sc.more...)
}

// level starts timing one doubling-search level: it zeroes the level's
// sweep/assemble split and returns the level's start offset.
func (sc *stageClock) level() time.Duration {
	if sc == nil {
		return 0
	}
	sc.sweep, sc.assemble = 0, 0
	return sc.since()
}

// levelStageNames holds the stage names of the power-of-two levels the
// doubling search tries, so naming a level allocates nothing.
var levelStageNames = func() (names [bits.UintSize - 1]string) {
	for i := range names {
		names[i] = fmt.Sprintf("level(d=%d)", 1<<i)
	}
	return names
}()

// levelStageName names the stage of the level at delta; only a fixed
// Options.Delta that is not a power of two formats a name of its own.
func levelStageName(delta int) string {
	if delta > 0 && delta&(delta-1) == 0 {
		return levelStageNames[bits.TrailingZeros(uint(delta))]
	}
	return fmt.Sprintf("level(d=%d)", delta)
}

// Builder is the flat-state construction core behind Build: it owns every
// piece of scratch memory the Theorem 3.1 overcongested-edge process and
// the Observation 2.7 loop need, so repeated constructions — the doubling
// search's levels, the service layer's cold builds, benchmark loops — stop
// paying per-call allocation for per-node maps.
//
// Two ideas replace the map-based bookkeeping of the original path
// (preserved in reference_test.go and tested equivalent):
//
//   - Part sets are open-addressing (part, representative) tables drawn
//     from a per-builder size-class pool, merged small-into-large along
//     the bottom-up sweep exactly like the original per-node maps.
//   - Component roots, bipartite degrees, and ancestor-walk dedup use
//     dense epoch-stamped slices keyed by node and part ID, cleared by
//     bumping an epoch instead of reallocating.
//
// The doubling search over delta' runs one level at a time on the calling
// goroutine, every level on the same scratch.
//
// A Builder is NOT safe for concurrent use; concurrent callers each hold
// their own. Its zero value is empty: assigning Builder{} drops scratch.
// Everything a Build call returns — the Result, the Shortcut, its H
// slices — is freshly allocated and never aliased by the builder's
// scratch, so results stay valid across subsequent Build calls on the
// same Builder. A level collects its H runs in scratch, and only the
// accepted level copies them out, into one exact-size array: a warm
// Build allocates the same four objects whatever the number of parts —
// its built record, H, Covered and the H array. The BFS tree is the
// graph's shared read-only tree (tree.SharedInto) under a header in the
// record.
type Builder struct {
	ls levelState
}

// built is everything a Build returns that is not a slice of its own, in
// one allocation, as a store read's record is: the Result, its Shortcut,
// the Shortcut's tree header when the build uses the graph's shared tree,
// and, when the build collects stages, the first stages and levels, as
// many as the stage clock keeps inline.
type built struct {
	res    Result
	s      Shortcut
	tree   tree.Rooted
	stages [8]Stage
	levels [4]int
}

// NewBuilder returns an empty Builder; scratch is allocated lazily and
// grows to the largest (graph, partition) seen.
func NewBuilder() *Builder { return &Builder{} }

// Build is Builder-backed shortcut construction; see the package-level
// Build for the contract. The accepted delta', covered parts, and
// canonical H edge sets are identical to the map-based reference path for
// every input.
func (b *Builder) Build(g *graph.Graph, p *partition.Partition, opts Options) (*Result, error) {
	if p.NumParts() == 0 {
		return nil, fmt.Errorf("shortcut: no parts")
	}
	if opts.Certify && opts.Rng == nil {
		return nil, fmt.Errorf("shortcut: Certify requires Options.Rng")
	}
	var clock stageClock
	var sc *stageClock
	if opts.CollectStages {
		sc = clock.begin()
	}
	rec := new(built)
	t := opts.Tree
	if t == nil {
		// The graph memoizes its root and BFS tree: the first build on a
		// graph pays the root search and the BFS inside choose_root, and
		// every build after it times two memo reads.
		begin := sc.since()
		graph.ChooseRoot(g)
		sc.end("choose_root", begin)
		begin = sc.since()
		err := tree.SharedInto(&rec.tree, g)
		sc.end("bfs_tree", begin)
		if err != nil {
			return nil, fmt.Errorf("shortcut: build tree: %w", err)
		}
		t = &rec.tree
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
	certAttempts := opts.CertAttempts
	if certAttempts == 0 {
		certAttempts = 8 * depth
	}

	res := &rec.res
	res.TreeDepth = depth
	if sc != nil {
		res.LevelsTried = rec.levels[:0]
	}
	start := opts.Delta
	fixed := start != 0
	if !fixed {
		start = 1
	}
	for delta := start; ; delta *= 2 {
		if !fixed && delta > maxDelta {
			return nil, fmt.Errorf("shortcut: doubling search exhausted at delta' = %d (max %d)", delta, maxDelta)
		}
		c, bb, err := levelParams(cf, bf, delta, depth)
		if err != nil {
			return nil, err
		}
		begin := sc.level()
		iters, lastPartial, ok, err := b.ls.runLevel(g, t, p, c, bb, maxIter, opts.Certify, sc)
		if sc != nil {
			res.LevelsTried = append(res.LevelsTried, delta)
			sc.end(levelStageName(delta), begin)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			if sc != nil {
				sc.add("sweep", begin, sc.sweep)
				sc.add("assemble", begin, sc.assemble)
				res.Stages = sc.stages(rec.stages[:0])
			}
			res.Shortcut = b.ls.finish(&rec.s, g, t, p)
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

// levelParams returns the congestion threshold c = cf·delta'·D and the
// block budget b = bf·delta' of one doubling-search level, or an error
// when either product overflows an int: a wrapped product would build at
// a level that is not the one Result reports.
func levelParams(cf, bf, delta, depth int) (c, b int, err error) {
	c, okC := mulInt(cf, delta)
	if okC {
		c, okC = mulInt(c, depth)
	}
	b, okB := mulInt(bf, delta)
	if !okC || !okB {
		return 0, 0, fmt.Errorf("shortcut: delta' = %d overflows c = cf·delta'·D or b = bf·delta' (cf %d, bf %d, D %d)",
			delta, cf, bf, depth)
	}
	return c, b, nil
}

// mulInt returns x·y and whether the product fits in an int.
func mulInt(x, y int) (int, bool) {
	p := x * y
	if x != 0 && (p/x != y || (x == -1 && y == math.MinInt)) {
		return 0, false
	}
	return p, true
}

// levelState is the scratch memory for one run of the Observation 2.7
// level loop: the per-node part sets of the bottom-up sweep, the cut
// indicator, and the epoch-stamped slices of the Case (I) harvest. A
// Builder owns one; the stateless entry points borrow one from statePool.
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
	// hBuf holds the level's H runs back to back: assemble appends each
	// covered part's sorted run and bounds it in runs (start -1: not
	// covered at this level). finish copies the buffer into the result's
	// one array, so the buffer's growth is paid once per levelState and a
	// level that fails allocates no H.
	hBuf []int
	runs []hRun
}

// hRun bounds one part's H edges in levelState.hBuf.
type hRun struct{ start, end int }

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

// beginLevel empties the H runs for a k-part level.
func (ls *levelState) beginLevel(k int) {
	ls.hBuf = ls.hBuf[:0]
	if cap(ls.runs) < k {
		ls.runs = make([]hRun, k)
	}
	ls.runs = ls.runs[:k]
	for i := range ls.runs {
		ls.runs[i] = hRun{start: -1}
	}
}

// finish fills s with the shortcut the level's runs describe and returns
// it. All H sets share one exact-size array, each carved with a full slice
// expression, so an append to one H[i] reallocates it instead of
// overwriting its neighbour; uncovered parts keep a nil H[i].
func (ls *levelState) finish(s *Shortcut, g *graph.Graph, t *tree.Rooted, p *partition.Partition) *Shortcut {
	k := p.NumParts()
	*s = Shortcut{
		G:       g,
		Parts:   p,
		Tree:    t,
		H:       make([][]int, k),
		Covered: make([]bool, k),
	}
	all := make([]int, len(ls.hBuf))
	copy(all, ls.hBuf)
	for i, r := range ls.runs {
		if r.start >= 0 {
			s.Covered[i] = true
			s.H[i] = all[r.start:r.end:r.end]
		}
	}
	return s
}

// runLevel runs the Observation 2.7 loop at a fixed (c, b) level, leaving
// the covered parts' H runs in the level's scratch for finish. sc, when
// non-nil, accumulates the sweep/assemble wall-clock split across
// iterations; timing never changes what is built. The returned Partial is
// freshly allocated; scratch never escapes.
func (ls *levelState) runLevel(g *graph.Graph, t *tree.Rooted, p *partition.Partition, c, b, maxIter int,
	certify bool, sc *stageClock) (int, *Partial, bool, error) {
	if c < 1 {
		return 0, nil, false, fmt.Errorf("shortcut: congestion threshold %d < 1", c)
	}
	if b < 0 {
		return 0, nil, false, fmt.Errorf("shortcut: negative block budget %d", b)
	}
	k := p.NumParts()
	ls.prepare(g.NumNodes())
	ls.beginLevel(k)
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
		var pr *Partial
		if certify {
			pr = &Partial{IE: make(map[int][]PartRep), DegB: make([]int, k)}
			last = pr
		}
		var progress int
		if sc == nil {
			ls.sweep(t, p, c, active, pr)
			progress = ls.assemble(t, p, active, b, true)
		} else {
			t0 := time.Now() //locshort:nondeterministic-ok timing-only: the split feeds the stage trace, never the construction
			ls.sweep(t, p, c, active, pr)
			t1 := time.Now() //locshort:nondeterministic-ok timing-only: the split feeds the stage trace, never the construction
			progress = ls.assemble(t, p, active, b, true)
			sc.sweep += t1.Sub(t0)
			sc.assemble += time.Since(t1) //locshort:nondeterministic-ok timing-only: the split feeds the stage trace, never the construction
		}
		remaining -= progress
		if remaining == 0 {
			return iter, last, true, nil
		}
		if progress == 0 {
			return iter, last, false, nil
		}
	}
	return maxIter, last, false, nil
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
// covered with all its ancestor edges in the forest, appended to ls.hBuf
// as a sorted run. When deactivate is set, covered parts are removed from
// active (the harvest step of the level loop). Returns the number of
// parts covered.
//
//locshort:hotpath
func (ls *levelState) assemble(t *tree.Rooted, p *partition.Partition, active []bool, b int, deactivate bool) int {
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
		progress++
		epoch = ls.nextEpoch()
		hb, start := ls.hBuf, len(ls.hBuf)
		for _, u := range p.Parts[i] {
			for u != -1 && !ls.cutAbove[u] && t.Parent[u] != -1 && ls.stampNode[u] != epoch {
				ls.stampNode[u] = epoch
				hb = append(hb, t.ParentEdge[u])
				u = t.Parent[u]
			}
		}
		ls.hBuf = hb
		slices.Sort(hb[start:])
		ls.runs[i] = hRun{start: start, end: len(hb)}
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
