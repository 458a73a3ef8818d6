package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// BenchRecord is one machine-readable benchmark data point: the measured
// shortcut quality and construction cost for one workload family. A file
// of these per PR tracks the performance trajectory across the repo's
// history.
type BenchRecord struct {
	Family       string `json:"family"`
	Nodes        int    `json:"n"`
	EdgeCount    int    `json:"m"`
	Parts        int    `json:"parts"`
	Delta        int    `json:"delta"`
	Congestion   int    `json:"congestion"`
	Dilation     int    `json:"dilation"`
	BuildNsPerOp int64  `json:"build_ns_per_op"`
	// BuildAllocsPerOp and BuildBytesPerOp are heap-allocation costs of one
	// construction, measured from runtime.MemStats deltas over the timing
	// iterations; they track the Builder's allocation discipline across PRs.
	BuildAllocsPerOp int64 `json:"build_allocs_per_op"`
	BuildBytesPerOp  int64 `json:"build_bytes_per_op"`
}

// Report is the BENCH_<timestamp>.json payload.
type Report struct {
	Timestamp string        `json:"timestamp"`
	Quick     bool          `json:"quick"`
	Seed      int64         `json:"seed"`
	Records   []BenchRecord `json:"records"`
	// ObsOverhead is the measured cost of build-stage collection
	// (Options.CollectStages, what the daemon's tracing turns on for every
	// cold build) against the identical uninstrumented build.
	ObsOverhead *ObsOverhead `json:"obs_overhead,omitempty"`
}

// ObsOverheadMaxPct is the acceptance bound on stage-collection overhead:
// a cold build with CollectStages must cost at most ~2% more than the
// same build without it (the extra 0.5 is measurement headroom — best-of
// interleaved runs still carry sub-percent scheduler noise). shortcutbench
// enforces the bound in full (non-quick) mode; quick-mode instances are
// too small to time a 2% effect meaningfully.
const ObsOverheadMaxPct = 2.5

// ObsOverhead compares cold-build cost with and without stage collection
// on the Builder acceptance family.
type ObsOverhead struct {
	Family        string `json:"family"`
	PlainNsPerOp  int64  `json:"plain_ns_per_op"`
	StagedNsPerOp int64  `json:"staged_ns_per_op"`
	// OverheadPct = 100 * (staged - plain) / plain; negative values (noise)
	// are reported as measured.
	OverheadPct float64 `json:"overhead_pct"`
}

// measureObsOverhead times interleaved plain/staged cold builds (best-of,
// sequential Builder) on grid:64x64 — the Builder's allocation-budget
// acceptance family. Interleaving pairs the two variants under the same
// scheduler and thermal conditions; best-of damps one-sided outliers. The
// graph's BFS tree is memoized before the first timed build, so both
// variants time the construction alone, not the one-off root search.
func measureObsOverhead(cfg Config) (*ObsOverhead, error) {
	side := 64
	if cfg.Quick {
		side = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.Grid(side, side)
	p, err := partition.BFSBlobs(g, side, rng)
	if err != nil {
		return nil, err
	}
	graph.ChooseRoot(g)
	const iters = 3000
	bestPlain, bestStaged := int64(-1), int64(-1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := shortcut.Build(g, p, shortcut.Options{}); err != nil {
			return nil, err
		}
		plain := time.Since(start).Nanoseconds()
		start = time.Now()
		if _, err := shortcut.Build(g, p, shortcut.Options{CollectStages: true}); err != nil {
			return nil, err
		}
		staged := time.Since(start).Nanoseconds()
		if bestPlain < 0 || plain < bestPlain {
			bestPlain = plain
		}
		if bestStaged < 0 || staged < bestStaged {
			bestStaged = staged
		}
	}
	return &ObsOverhead{
		Family:        fmt.Sprintf("grid:%dx%d", side, side),
		PlainNsPerOp:  bestPlain,
		StagedNsPerOp: bestStaged,
		OverheadPct:   100 * float64(bestStaged-bestPlain) / float64(bestPlain),
	}, nil
}

// buildTimingIters builds each family this many times and records the
// fastest run, damping scheduler noise without burning CI minutes.
const buildTimingIters = 3

// perfFamilies builds the large construction-benchmark workloads tracked in
// the JSON report alongside the standard experiment families. They match
// the BenchmarkBuild sub-benchmarks (grid:64x64 is the acceptance family
// for the Builder's allocation budget), so `go test -bench BenchmarkBuild
// -benchmem` and `shortcutbench -json` measure the same instances.
func perfFamilies(cfg Config) ([]family, error) {
	gridSide, torusSide, ktreeN := 64, 32, 600
	if cfg.Quick {
		gridSide, torusSide, ktreeN = 16, 12, 120
	}
	var fams []family

	// Each family gets a fresh seed-derived rng, exactly like the
	// BenchmarkBuild sub-benchmarks (which hard-code seed 1), so at the
	// default -seed 1 the instances really are the same regardless of
	// which families run or in what order.
	rng := rand.New(rand.NewSource(cfg.Seed))
	grid := graph.Grid(gridSide, gridSide)
	gp, err := partition.BFSBlobs(grid, gridSide, rng)
	if err != nil {
		return nil, err
	}
	fams = append(fams, family{name: fmt.Sprintf("grid:%dx%d", gridSide, gridSide), g: grid, p: gp, deltaBound: 3})

	rng = rand.New(rand.NewSource(cfg.Seed))
	torus := graph.Torus(torusSide, torusSide)
	tp, err := partition.BFSBlobs(torus, torusSide, rng)
	if err != nil {
		return nil, err
	}
	fams = append(fams, family{name: fmt.Sprintf("torus:%dx%d", torusSide, torusSide), g: torus, p: tp, deltaBound: 5})

	rng = rand.New(rand.NewSource(cfg.Seed))
	kt := graph.KTree(ktreeN, 4, rng)
	kp, err := partition.BFSBlobs(kt, ktreeN/12, rng)
	if err != nil {
		return nil, err
	}
	fams = append(fams, family{name: fmt.Sprintf("ktree:%d,4", ktreeN), g: kt, p: kp, deltaBound: 4})
	return fams, nil
}

// JSONReport times the Theorem 3.1 construction over the standard
// benchmark families plus the large perf families and packages quality,
// build cost, and allocation cost as a Report.
func JSONReport(cfg Config, now time.Time) (*Report, error) {
	fams, err := standardFamilies(cfg)
	if err != nil {
		return nil, err
	}
	perf, err := perfFamilies(cfg)
	if err != nil {
		return nil, err
	}
	fams = append(fams, perf...)
	rep := &Report{
		Timestamp: now.UTC().Format("20060102T150405Z"),
		Quick:     cfg.Quick,
		Seed:      cfg.Seed,
	}
	for _, f := range fams {
		var res *shortcut.Result
		best := int64(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < buildTimingIters; i++ {
			start := time.Now()
			r, err := shortcut.Build(f.g, f.p, shortcut.Options{})
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, err
			}
			if best < 0 || ns < best {
				best, res = ns, r
			}
		}
		runtime.ReadMemStats(&after)
		q := shortcut.Measure(res.Shortcut)
		rep.Records = append(rep.Records, BenchRecord{
			Family:           f.name,
			Nodes:            f.g.NumNodes(),
			EdgeCount:        f.g.NumEdges(),
			Parts:            f.p.NumParts(),
			Delta:            res.Delta,
			Congestion:       q.Congestion,
			Dilation:         q.Dilation,
			BuildNsPerOp:     best,
			BuildAllocsPerOp: int64(after.Mallocs-before.Mallocs) / buildTimingIters,
			BuildBytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / buildTimingIters,
		})
	}
	if rep.ObsOverhead, err = measureObsOverhead(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteFile marshals the report (indented, trailing newline) to path.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// DefaultReportPath names the report file for its timestamp:
// BENCH_<timestamp>.json in the current directory.
func (r *Report) DefaultReportPath() string {
	return "BENCH_" + r.Timestamp + ".json"
}
