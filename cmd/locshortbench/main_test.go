package main

import (
	"context"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the repository's BENCHMARK.json, two levels up.
const benchmarkJSON = "../../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmark(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(bf.EndToEnd))
	}
	if len(bf.PerLayer) == 0 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(bf.PerLayer))
	}
	if !slices.Equal(bf.Paths, []string{"cmd/locshortbench"}) {
		t.Errorf("paths %q", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range defaultWorkloads() {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %q, the benchmark runs %q", names, code)
	}
	seen := make(map[string]bool)
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if unit == "" || (better != "lower" && better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", name, unit, better)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
}

// tinyWorkloads are the four workloads at toy sizes, with the same shape.
func tinyWorkloads() []*workload {
	ws := defaultWorkloads()
	small := []string{"grid:6x6", "torus:5x5", "wheel:20", "ktree:30,3"}
	for _, w := range ws {
		w.replay = 40
		switch w.name {
		case "warm-hit":
			w.catalog, w.partSpec = small, "blobs:4"
		case "cold-build":
			w.catalog, w.partSpec = []string{"grid:8x8", "torus:6x6", "ktree:40,3"}, "blobs:4"
			w.replay = 12
		case "store-mixed":
			w.catalog, w.partSpec, w.keysPerGraph = []string{"grid:8x8", "grid:6x6"}, "blobs:4", 16
		case "cluster-3":
			w.catalog, w.partSpec, w.keysPerGraph = small, "blobs:4", 2
		}
	}
	return ws
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmark(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "locshortd")
	ctx := context.Background()
	if err := buildDaemon(ctx, root, daemon); err != nil {
		t.Fatal(err)
	}
	// The workloads mostly wait on fsyncs and the cluster's backoff, so
	// they run side by side, each in its own directories.
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			b := &bench{
				work:    filepath.Join(dir, w.name),
				daemon:  daemon,
				setups:  1,
				warmup:  200 * time.Millisecond,
				seconds: time.Second,
				spans:   filepath.Join(dir, w.name+".spans.jsonl"),
				families: []family{
					{"grid64", "grid:8x8", "blobs:4"},
					{"torus32", "torus:6x6", "blobs:4"},
					{"ktree600", "ktree:40,3", "blobs:4"},
					{"grid32", "grid:6x6", "blobs:4"},
				},
				hit:    family{"grid16", "grid:5x5", "blobs:4"},
				rounds: rounds{n: 2, min: time.Millisecond},
				probes: 5,
			}
			for _, traced := range []bool{false, true} {
				res, err := b.run(ctx, w, 1, traced)
				if err != nil {
					t.Fatalf("trace %v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %v: correct %v, %d of %d failed: %q",
						traced, res.Correct, res.Failed, res.Attempted, res.Violations)
				}
				got := make(map[string]metric)
				for _, m := range res.Metrics {
					got[m.Name] = m
				}
				var want []string
				if traced {
					for _, m := range bf.PerLayer {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range bf.EndToEnd {
						want = append(want, m.Name)
						if m, ok := got[m.Name]; ok && m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, m.Value)
						}
					}
					for _, m := range res.Extra {
						if m.Name == "latency_p50_ms" && m.Samples == 0 {
							t.Error("latency_p50_ms has no samples")
						}
					}
				}
				for _, name := range want {
					if _, ok := got[name]; !ok {
						t.Errorf("trace %v: metric %s not reported", traced, name)
					}
				}
				if len(got) != len(want) {
					t.Errorf("trace %v: %d metrics reported, BENCHMARK.json lists %d", traced, len(got), len(want))
				}
			}
			if !isFile(b.spans) {
				t.Error("the traced run wrote no spans file")
			}
		})
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	faster := []float64{8, 8.1, 7.9, 8.2, 8, 8.1, 7.9, 8, 8.1, 8}
	if v, wins, pairs := judge(parent, faster, true, 0.1); v != verdictImproved || wins != 10 || pairs != 10 {
		t.Errorf("faster change: %s %d/%d", v, wins, pairs)
	}
	slower := []float64{12, 12.1, 11.9, 12.2, 12, 12.1, 11.9, 12, 12.1, 12}
	if v, _, _ := judge(parent, slower, true, 0.1); v != verdictWorse {
		t.Errorf("slower change: %s", v)
	}
	if v, _, _ := judge(parent, parent, true, 0.1); v != verdictNoWorse {
		t.Errorf("same runs: %s", v)
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if v, _, _ := judge(noisy, noisy, true, 0.1); v != verdictUnresolved {
		t.Errorf("noisy runs: %s", v)
	}
	// Higher is better: a lower change median is worse.
	if v, _, _ := judge(parent, faster, false, 0.1); v != verdictWorse {
		t.Errorf("throughput drop: %s", v)
	}
	// Ungated (zero bound): worse only when the pairs say so, else unresolved.
	if v, _, _ := judge(parent, slower, true, 0); v != verdictWorse {
		t.Errorf("ungated, slower change: %s", v)
	}
	if v, _, _ := judge(parent, parent, true, 0); v != verdictUnresolved {
		t.Errorf("ungated, same runs: %s", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
