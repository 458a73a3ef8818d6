package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readResults reads the untraced run records of a results file, in order.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// series collects one metric's values per workload, in run order.
func series(rs []result, workload, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		for _, m := range append(r.Metrics, r.Extra...) {
			if m.Name == name {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// ungated are the recorded extras -compare judges beside BENCHMARK.json's
// metrics. They have no bound (see doc.go), so only the paired rule
// applies, in both directions.
var ungated = []struct {
	name        string
	lowerBetter bool
}{
	{"throughput_rps", false}, {"latency_p50_ms", true}, {"latency_p95_ms", true},
	{"latency_p99_ms", true}, {"server_cpu_ms_per_req", true}, {"json_p50_ms", true},
	{"binary_p50_ms", true}, {"read_p50_ms", true}, {"write_p50_ms", true},
}

// Verdicts, by the rules of the A/B protocol in doc.go.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no-worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares parent and change runs of one workload × metric. Runs are
// paired in order (the i-th of each side), so both files should come from
// alternating parent/change invocations. A zero bound marks an ungated
// metric: it is worse only by the mirror of the improved rule, and
// otherwise unresolved.
func judge(parent, change []float64, lowerBetter bool, bound float64) (verdict string, wins, pairs int) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	pairs = min(len(parent), len(change))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	separated := math.Abs(cm-pm) > q3-q1
	worse := (cm - pm) / pm
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	nine := 0.9 * float64(pairs)
	switch {
	case pairs > 0 && float64(wins) >= nine && separated && better(cm, pm):
		return verdictImproved, wins, pairs
	case bound == 0 && pairs > 0 && float64(losses) >= nine && separated && better(pm, cm):
		return verdictWorse, wins, pairs
	case bound == 0:
		return verdictUnresolved, wins, pairs
	case worse > bound:
		return verdictWorse, wins, pairs
	case (q3-q1)/math.Abs(pm) > bound && !allBetter:
		return verdictUnresolved, wins, pairs
	default:
		return verdictNoWorse, wins, pairs
	}
}

// compare prints, for every workload × gated metric and then every ungated
// one the workload records, each side's median and quartiles, the paired
// win fraction and the verdict.
func compare(out io.Writer, bf *benchmarkFile, parentPath, changePath string) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-22s %-34s %-34s %-7s %s\n", "workload", "metric",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "wins", "verdict")
	row := func(workload, name string, lowerBetter bool, bound float64) {
		pv, cv := series(parent, workload, name), series(change, workload, name)
		if len(pv) == 0 && len(cv) == 0 && bound == 0 {
			return // an ungated metric this workload does not record
		}
		if len(pv) == 0 || len(cv) == 0 {
			fmt.Fprintf(out, "%-12s %-22s missing runs (parent %d, change %d)\n", workload, name, len(pv), len(cv))
			return
		}
		verdict, wins, pairs := judge(pv, cv, lowerBetter, bound)
		gate := "ungated"
		if bound > 0 {
			gate = fmt.Sprintf("bound %.0f%%", 100*bound)
		}
		fmt.Fprintf(out, "%-12s %-22s %-34s %-34s %-7s %s (%s)\n", workload, name,
			summary(pv), summary(cv), fmt.Sprintf("%d/%d", wins, pairs), verdict, gate)
	}
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			row(w.Name, m.Name, m.Better == "lower", m.Bound)
		}
		for _, m := range ungated {
			row(w.Name, m.name, m.lowerBetter, 0)
		}
	}
	return nil
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(v), q1, q3, len(v))
}
