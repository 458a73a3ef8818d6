package cli

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// ErrDegenerateGraph reports a graph spec that parses but whose sizes its
// family cannot build, such as a 3-node wheel or a 2x2 torus. ParseGraph
// wraps it with the spec and the family's requirement.
var ErrDegenerateGraph = errors.New("cli: degenerate graph spec")

// ParseGraph builds a graph from a family spec. Supported kinds, with the
// sizes each needs:
//
//	grid:RxC     R, C >= 1          torus:RxC   R, C >= 3
//	wheel:N      N >= 4             cycle:N     N >= 3
//	path:N       N >= 1             complete:N  N >= 1
//	ktree:N,K    N > K >= 1         random:N,M  N-1 <= M <= N(N-1)/2
//	lb:DELTA,DIAM  see graph.LowerBound
//
// Sizes outside these ranges fail with ErrDegenerateGraph, and a graph
// over graph.MaxNodes or graph.MaxEdges fails with graph.ErrTooLarge before
// anything is allocated. For lb it also returns the row parts; rows is nil
// otherwise.
//
// The graph is in canonical form (graph.Canonical), the form a graph
// payload decodes to, so a graph has the same edge IDs, adjacency order
// and BFS tree whether it arrives as a spec or as a payload.
func ParseGraph(spec string, seed int64) (*graph.Graph, [][]int, error) {
	g, rows, err := generate(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	return graph.Canonical(g), rows, nil
}

// generate builds the graph a spec names, in its generator's edge order.
func generate(spec string, seed int64) (g *graph.Graph, rows [][]int, err error) {
	kind, arg, _ := strings.Cut(spec, ":")
	degenerate := func(need string) error {
		return fmt.Errorf("%w %q: %s", ErrDegenerateGraph, spec, need)
	}
	dims := func(sep string) (int, int, error) {
		a, b, ok := strings.Cut(arg, sep)
		if !ok {
			return 0, 0, fmt.Errorf("cli: spec %q needs %q-separated sizes", spec, sep)
		}
		x, err := strconv.Atoi(a)
		if err != nil {
			return 0, 0, fmt.Errorf("cli: spec %q: %w", spec, err)
		}
		y, err := strconv.Atoi(b)
		if err != nil {
			return 0, 0, fmt.Errorf("cli: spec %q: %w", spec, err)
		}
		return x, y, nil
	}
	// limit refuses a graph of n nodes and m edges over graph.MaxNodes or
	// graph.MaxEdges. CheckSize looks at n first, so an m that wrapped
	// because n is far over the limit is never read; for n <= MaxNodes no
	// family's edge count can wrap.
	limit := func(n, m int) error {
		if err := graph.CheckSize(n, m); err != nil {
			return fmt.Errorf("cli: spec %q: %w", spec, err)
		}
		return nil
	}
	// area is r*c for r, c >= 1, with each factor checked before the
	// multiply.
	area := func(r, c int) (int, error) {
		if r > graph.MaxNodes || c > graph.MaxNodes/r {
			return 0, fmt.Errorf("cli: spec %q: %w: %d x %d nodes, limit %d",
				spec, graph.ErrTooLarge, r, c, graph.MaxNodes)
		}
		return r * c, nil
	}
	one := func() (int, error) {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return 0, fmt.Errorf("cli: spec %q: %w", spec, err)
		}
		return n, nil
	}
	switch kind {
	case "grid":
		r, c, err := dims("x")
		if err != nil {
			return nil, nil, err
		}
		if r < 1 || c < 1 {
			return nil, nil, degenerate("grid needs R, C >= 1")
		}
		n, err := area(r, c)
		if err == nil {
			err = limit(n, 2*n-r-c)
		}
		if err != nil {
			return nil, nil, err
		}
		return graph.Grid(r, c), nil, nil
	case "torus":
		r, c, err := dims("x")
		if err != nil {
			return nil, nil, err
		}
		if r < 3 || c < 3 {
			return nil, nil, degenerate("torus needs R, C >= 3")
		}
		n, err := area(r, c)
		if err == nil {
			err = limit(n, 2*n)
		}
		if err != nil {
			return nil, nil, err
		}
		return graph.Torus(r, c), nil, nil
	case "wheel":
		n, err := one()
		if err != nil {
			return nil, nil, err
		}
		if n < 4 {
			return nil, nil, degenerate("wheel needs N >= 4")
		}
		if err := limit(n, 2*(n-1)); err != nil {
			return nil, nil, err
		}
		return graph.Wheel(n), nil, nil
	case "cycle":
		n, err := one()
		if err != nil {
			return nil, nil, err
		}
		if n < 3 {
			return nil, nil, degenerate("cycle needs N >= 3")
		}
		if err := limit(n, n); err != nil {
			return nil, nil, err
		}
		return graph.Cycle(n), nil, nil
	case "path":
		n, err := one()
		if err != nil {
			return nil, nil, err
		}
		if n < 1 {
			return nil, nil, degenerate("path needs N >= 1")
		}
		if err := limit(n, n-1); err != nil {
			return nil, nil, err
		}
		return graph.Path(n), nil, nil
	case "complete":
		n, err := one()
		if err != nil {
			return nil, nil, err
		}
		if n < 1 {
			return nil, nil, degenerate("complete needs N >= 1")
		}
		if err := limit(n, n*(n-1)/2); err != nil {
			return nil, nil, err
		}
		return graph.Complete(n), nil, nil
	case "ktree":
		n, k, err := dims(",")
		if err != nil {
			return nil, nil, err
		}
		if k < 1 || n < k+1 {
			return nil, nil, degenerate("ktree needs N > K >= 1")
		}
		// A seed clique, then K edges per further node.
		m := k*(k+1)/2 + (n-k-1)*k
		if err := limit(n, m); err != nil {
			return nil, nil, err
		}
		// The generator keeps every K-clique it makes, about one per edge,
		// so its table holds about K*M nodes.
		if k > graph.MaxEdges/m {
			return nil, nil, fmt.Errorf("cli: spec %q: %w: the generator's clique table holds K*M = %d nodes, limit %d",
				spec, graph.ErrTooLarge, k*m, graph.MaxEdges)
		}
		return graph.KTree(n, k, rand.New(rand.NewSource(seed))), nil, nil
	case "random":
		n, m, err := dims(",")
		if err != nil {
			return nil, nil, err
		}
		// The same bounds graph.RandomConnected enforces by panicking; N is
		// bounded before N(N-1)/2 is computed, so the product cannot wrap.
		need := "random needs N >= 1 and N-1 <= M <= N(N-1)/2"
		if n < 1 || m < n-1 {
			return nil, nil, degenerate(need)
		}
		if err := limit(n, m); err != nil {
			return nil, nil, err
		}
		if m > n*(n-1)/2 {
			return nil, nil, degenerate(need)
		}
		return graph.RandomConnected(n, m, rand.New(rand.NewSource(seed))), nil, nil
	case "lb":
		d, dd, err := dims(",")
		if err != nil {
			return nil, nil, err
		}
		lb, err := graph.LowerBound(d, dd)
		if err != nil {
			return nil, nil, err
		}
		return lb.G, lb.Rows, nil
	default:
		return nil, nil, fmt.Errorf("cli: unknown graph kind %q", kind)
	}
}

// ParsePartition builds a partition of g from a spec. Supported kinds:
//
//	blobs:K      K connected BFS-Voronoi parts from random seeds
//	rows:RxC     the row paths of a Grid(R, C) graph
//	rim          the wheel rim + center partition (Wheel graphs)
//	singletons   every node its own part
//
// seed drives the randomness of blobs; the other kinds are deterministic.
func ParsePartition(g *graph.Graph, spec string, seed int64) (*partition.Partition, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "blobs":
		k, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("cli: partition spec %q: %w", spec, err)
		}
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(seed)
		p, err := partition.BFSBlobs(g, k, rng)
		rngPool.Put(rng)
		return p, err
	case "rows":
		a, b, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("cli: partition spec %q needs RxC", spec)
		}
		r, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("cli: partition spec %q: %w", spec, err)
		}
		c, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("cli: partition spec %q: %w", spec, err)
		}
		return partition.GridRows(g, r, c)
	case "rim":
		return partition.WheelRim(g)
	case "singletons":
		return partition.Singletons(g)
	default:
		return nil, fmt.Errorf("cli: unknown partition kind %q", kind)
	}
}

// rngPool recycles the generators of blobs specs. Seed restarts a pooled
// *rand.Rand on exactly the sequence rand.New(rand.NewSource(seed)) draws,
// so a spec makes the same partition without allocating a generator.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// buildOptionKeys lists the textual keys of the shortcut.Options fields a
// request may set, in the order an unknown-key error names them.
var buildOptionKeys = []string{"delta", "maxdelta", "cf", "bf", "iters"}

func buildOptionField(o *shortcut.Options, key string) *int {
	switch key {
	case "delta":
		return &o.Delta
	case "maxdelta":
		return &o.MaxDelta
	case "cf":
		return &o.CongestionFactor
	case "bf":
		return &o.BlockFactor
	case "iters":
		return &o.MaxIterations
	}
	return nil
}

// MaxBuildFactor bounds the cf, bf and iters build options (the paper's
// constant is 8). With delta and maxdelta at most graph.MaxNodes (2^22),
// and a tree depth D below the node count, the level products
// c = cf·delta'·D < 2^52 and b = bf·delta' ≤ 2^30 fit in an int64, and
// so do the E1 congestion bound c·iterations < 2^60 and the E2 dilation
// bound (b+1)(2D+1) < 2^54. The bound holds for the graphs an older store
// may warm start with up to 2^26 nodes, too: c < 2^60 there.
const MaxBuildFactor = 256

// ParseBuildOptions parses comma-separated key=value build options
// ("delta=8,maxdelta=64,cf=8,bf=8,iters=12"). Keys may appear in any
// order and any subset (missing keys stay zero, i.e. paper defaults);
// duplicate or unknown keys are errors, and so is a value over its bound:
// graph.MaxNodes for delta and maxdelta, MaxBuildFactor for cf, bf and
// iters. The empty string is the zero Options.
func ParseBuildOptions(s string) (shortcut.Options, error) {
	var o shortcut.Options
	if s == "" {
		return o, nil
	}
	seen := make(map[string]bool)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return o, fmt.Errorf("cli: build options %q: entry %q is not key=value", s, kv)
		}
		f := buildOptionField(&o, k)
		if f == nil {
			return o, fmt.Errorf("cli: build options %q: unknown key %q (known: %s)",
				s, k, strings.Join(buildOptionKeys, ", "))
		}
		if seen[k] {
			return o, fmt.Errorf("cli: build options %q: duplicate key %q", s, k)
		}
		seen[k] = true
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, fmt.Errorf("cli: build options %q: %w", s, err)
		}
		if n < 0 {
			return o, fmt.Errorf("cli: build options %q: %s must be non-negative", s, k)
		}
		limit := MaxBuildFactor
		if k == "delta" || k == "maxdelta" {
			limit = graph.MaxNodes
		}
		if n > limit {
			return o, fmt.Errorf("cli: build options %q: %s %d is over its limit %d", s, k, n, limit)
		}
		*f = n
	}
	return o, nil
}
