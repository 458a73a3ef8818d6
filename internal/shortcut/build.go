package shortcut

import (
	"errors"
	"math/bits"
	"math/rand"
	"time"

	"locshort/internal/graph"
	"locshort/internal/minor"
	"locshort/internal/partition"
	"locshort/internal/tree"
)

// Options configures Build.
type Options struct {
	// Tree is the rooted spanning tree to restrict the shortcut to. If nil,
	// the graph's shared BFS tree (tree.Shared) is used: rooted near the
	// graph center, depth <= diameter.
	Tree *tree.Rooted
	// Delta fixes the minor-density parameter delta'. If zero, Build runs
	// the parameter-free doubling search of the Section 3.1 remark: the
	// first power of two at which the Observation 2.7 loop completes is
	// accepted, and Theorem 3.1 guarantees acceptance at delta' < 2*delta(G).
	Delta int
	// MaxDelta caps the doubling search (default: number of nodes).
	MaxDelta int
	// CongestionFactor and BlockFactor scale the per-iteration congestion
	// threshold c = CongestionFactor*delta'*D and block budget
	// b = BlockFactor*delta'. Both default to the paper's constant 8.
	CongestionFactor int
	BlockFactor      int
	// MaxIterations caps the Observation 2.7 loop (default ceil(log2 k)+2).
	MaxIterations int
	// Parallelism has no effect: the doubling search runs one level at a
	// time on the calling goroutine (DESIGN.md §5.3). The field stays so
	// that callers setting it still compile.
	//
	// Deprecated: ignored.
	Parallelism int
	// Certify requests dense-minor certificate extraction whenever a
	// delta' level fails; extracted certificates are returned in the result.
	Certify bool
	// CertAttempts bounds sampling attempts per failed level (default 8D).
	CertAttempts int
	// Rng drives certificate sampling; required only when Certify is set.
	Rng *rand.Rand
	// CollectStages, when set, records a wall-clock stage breakdown — tree
	// construction, every doubling-search level tried, and the accepted
	// level's sweep/assemble split — into Result.Stages and the level
	// sequence into Result.LevelsTried. Timing-only: the constructed
	// shortcut is identical with or without it, so the service layer
	// excludes it from content addressing.
	CollectStages bool
}

// Stage is one timed phase of a Build call: Start is the offset from the
// start of the call, Dur the phase's wall-clock cost. The accepted level's
// cumulative "sweep" and "assemble" stages share its start offset.
type Stage struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Result reports the outcome of Build.
type Result struct {
	Shortcut *Shortcut
	// Delta is the accepted delta' of the doubling search (or Options.Delta).
	Delta int
	// Congestion threshold and block budget used per iteration.
	CongestionThreshold int
	BlockBudget         int
	// Iterations is the number of Observation 2.7 iterations of the
	// accepted level.
	Iterations int
	// TreeDepth is the depth of the tree used.
	TreeDepth int
	// Certificates holds dense-minor witnesses extracted at failed levels
	// (only when Options.Certify is set); Certificates[i].Density() exceeds
	// the delta' of the corresponding failed level, recorded in
	// FailedDeltas[i].
	Certificates []*minor.Mapping
	FailedDeltas []int
	// Stages is the stage-timing breakdown, populated only when
	// Options.CollectStages is set (both fields stay nil otherwise).
	Stages []Stage
	// LevelsTried lists the delta' levels the doubling search attempted, in
	// order, ending with the accepted level.
	LevelsTried []int
}

// ErrDeltaTooSmall is returned by Build when a caller-fixed delta' level
// fails to cover every part. The returned Result still carries any extracted
// certificates.
var ErrDeltaTooSmall = errors.New("shortcut: construction failed at the requested delta'")

// Build constructs a full tree-restricted shortcut for every part, following
// Theorem 3.1 plus the Observation 2.7 halving loop, with the parameter-free
// doubling search over delta'. It errors only on structurally invalid input,
// when a fixed Options.Delta level fails (ErrDeltaTooSmall, with a non-nil
// Result carrying certificates), or when MaxDelta is exhausted (impossible
// for MaxDelta >= 2*delta(G) by Theorem 3.1).
//
// Build allocates a fresh Builder per call; callers constructing in a loop
// (or serving concurrent requests) should hold their own Builder (or pool
// of Builders) and call its Build method to reuse scratch memory.
func Build(g *graph.Graph, p *partition.Partition, opts Options) (*Result, error) {
	return NewBuilder().Build(g, p, opts)
}

// CeilLog2 returns ⌈log₂x⌉ (0 for x ≤ 1); shared by the iteration and
// sample-size budgets across the shortcut, dist, and bench layers.
func CeilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}
