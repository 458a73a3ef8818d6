package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label pairs
// (sorted by key), and the value.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(k string) string { return s.Labels[k] }

// Scrape is a parsed /metrics payload, indexed for the two consumers:
// locshortctl top (counter deltas, histogram quantiles between scrapes) and
// locshortbench (the daemons' allocation and request counters around a
// run).
type Scrape struct {
	Samples []Sample
	byName  map[string][]int
}

// ParsePrometheus parses text exposition format as written by
// Registry.WritePrometheus: comment lines are skipped, every other
// non-empty line is name{labels} value. It tolerates any input the format
// allows (escaped label values, +Inf, scientific notation) and errors on
// lines it cannot split, so a scrape of a non-metrics endpoint fails loudly
// instead of yielding zeros.
func ParsePrometheus(r io.Reader) (*Scrape, error) {
	sc := &Scrape{byName: make(map[string][]int)}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for br.Scan() {
		lineNo++
		line := strings.TrimSpace(br.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		sc.byName[s.Name] = append(sc.byName[s.Name], len(sc.Samples))
		sc.Samples = append(sc.Samples, s)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{}
	// Name runs to '{' or whitespace.
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("in %q: %w", line, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// Value is the first field; an optional timestamp may follow.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at in[0]=='{' and
// returns the index just past the closing '}'.
func parseLabels(in string) (int, Labels, error) {
	labels := Labels{}
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value for %q", key)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return 0, nil, fmt.Errorf("unterminated label value for %q", key)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the value of the first sample matching name and every given
// label pair, and whether one was found. A nil/empty want matches any
// labels.
func (sc *Scrape) Value(name string, want Labels) (float64, bool) {
	for _, i := range sc.byName[name] {
		if labelsMatch(sc.Samples[i].Labels, want) {
			return sc.Samples[i].Value, true
		}
	}
	return 0, false
}

// Matching returns all samples with the given name whose labels include
// every pair in want.
func (sc *Scrape) Matching(name string, want Labels) []Sample {
	var out []Sample
	for _, i := range sc.byName[name] {
		if labelsMatch(sc.Samples[i].Labels, want) {
			out = append(out, sc.Samples[i])
		}
	}
	return out
}

// HasFamily reports whether any sample of the family exists — for
// histograms, any of the _bucket/_sum/_count series.
func (sc *Scrape) HasFamily(name string) bool {
	if len(sc.byName[name]) > 0 {
		return true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if len(sc.byName[name+suf]) > 0 {
			return true
		}
	}
	return false
}

// Histogram reconstructs a HistogramSnapshot for the named histogram series
// whose labels include every pair in want (le excluded from matching).
// Returns false when no buckets match. Cumulative bucket counts are
// de-accumulated back to per-bucket counts, the inverse of the writer.
func (sc *Scrape) Histogram(name string, want Labels) (HistogramSnapshot, bool) {
	type bkt struct {
		le  float64
		cum float64
	}
	var bkts []bkt
	for _, i := range sc.byName[name+"_bucket"] {
		s := sc.Samples[i]
		if !labelsMatchExcept(s.Labels, want, "le") {
			continue
		}
		le, err := parseValue(s.Label("le"))
		if err != nil {
			continue
		}
		bkts = append(bkts, bkt{le: le, cum: s.Value})
	}
	if len(bkts) == 0 {
		return HistogramSnapshot{}, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	snap := HistogramSnapshot{}
	var prev float64
	for _, b := range bkts {
		if !math.IsInf(b.le, 1) {
			snap.Bounds = append(snap.Bounds, b.le)
		}
		c := b.cum - prev
		if c < 0 {
			c = 0
		}
		snap.Counts = append(snap.Counts, uint64(c))
		prev = b.cum
	}
	if len(snap.Counts) == len(snap.Bounds) {
		// No +Inf bucket in the scrape; add an empty one so the snapshot
		// keeps the len(Bounds)+1 invariant.
		snap.Counts = append(snap.Counts, 0)
	}
	if sum, ok := sc.Value(name+"_sum", want); ok {
		snap.SumNs = int64(sum * 1e9)
	}
	return snap, true
}

func labelsMatch(have, want Labels) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func labelsMatchExcept(have, want Labels, except string) bool {
	for k, v := range want {
		if k == except {
			continue
		}
		if have[k] != v {
			return false
		}
	}
	return true
}
