package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

var selfPID = os.Getpid()

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadF = flag.String("workload", "all", "workload to run (warm-hit, cold-build, store-mixed, cluster-3) or all")
		seed      = flag.Int64("seed", 1, "input seed: the same seed generates the same requests")
		seconds   = flag.Float64("seconds", 10, "length of each timed window")
		traceF    = flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
		out       = flag.String("out", "", "results file, one JSON record appended per run (default .bench_build/results.jsonl)")
		spans     = flag.String("spans", "", "traced runs write their spans here (default .bench_build/spans.jsonl)")
		compareF  = flag.Bool("compare", false, "compare two results files by BENCHMARK.json's bounds: -compare PARENT CHANGE")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "locshortbench:", err)
		return 2
	}
	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "locshortbench: -compare needs two results files: PARENT CHANGE")
			return 2
		}
		bf, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
		if err == nil {
			err = compare(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "locshortbench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || (*traceF != 0 && *traceF != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	var selected []*workload
	for _, w := range defaultWorkloads() {
		if *workloadF == "all" || *workloadF == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "locshortbench: unknown workload %q\n", *workloadF)
		return 2
	}
	buildDir := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(buildDir, "results.jsonl")
	}
	if *spans == "" {
		*spans = filepath.Join(buildDir, "spans.jsonl")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{
		work:     filepath.Join(buildDir, "work", strconv.Itoa(selfPID)),
		daemon:   filepath.Join(buildDir, "bin", "locshortd"),
		setups:   3,
		warmup:   time.Second,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		spans:    *spans,
		families: defaultFamilies,
		hit:      defaultHit,
		rounds:   defaultRounds,
		probes:   300,
	}
	defer os.RemoveAll(b.work)
	if err := buildDaemon(ctx, root, b.daemon); err != nil {
		fmt.Fprintln(os.Stderr, "locshortbench:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		res, err := b.run(ctx, w, *seed, *traceF == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "locshortbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "locshortbench:", err)
			return 1
		}
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "locshortbench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// findRoot locates the repository root (go.mod plus cmd/locshortd) from
// the working directory upwards, so the benchmark runs both from the root
// and from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "locshortd", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a locshort checkout: no go.mod with cmd/locshortd above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// report prints a run: one "workload metric value unit" line per metric,
// the ungated extras, the run environment, and as the last line the JSON
// summary {"correct", "attempted", "failed", "metrics"}.
func report(out io.Writer, r *result) error {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s seed %d, %s run, %gs window\n", r.Workload, r.Seed, mode, r.Seconds)
	line := func(m metric) {
		fmt.Fprintf(out, "%s %s %s %s", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(out, " n=%d", m.Samples)
		}
		fmt.Fprintln(out)
	}
	for _, m := range r.Metrics {
		line(m)
	}
	fmt.Fprintln(out, "-- ungated:")
	for _, m := range r.Extra {
		line(m)
	}
	if r.attribution != "" {
		fmt.Fprintln(out, r.attribution)
	}
	e := r.Env
	fmt.Fprintf(out, "env: commit %s, %s, nproc %d, GOMAXPROCS %d, steal %.1f%%, generator cpu %.2fs\n",
		e.Commit, e.Go, e.NProc, e.GOMAXPROCS, 100*e.StealShare, e.GeneratorCPUS)
	for _, v := range r.Violations {
		fmt.Fprintln(out, "INCORRECT:", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, m := range r.Metrics {
		summary.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

func appendResult(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
