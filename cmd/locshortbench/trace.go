package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"locshort/internal/cli"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// The traced replay drives a workload's first seeded requests through the
// layers' public functions in the daemon's order, on one goroutine,
// against an in-process engine configured like the daemon. Spans are
// recorded from the benchmark's side of each call; the daemon itself is
// not instrumented.
var pathLayers = []string{"decode", "partition", "key", "engine", "render"}

// span is one timed call. Spans of a request share Req; a request's root
// span has Parent -1 and every layer span is its child.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; a disabled recorder costs a branch per
// call, which is what trace_overhead_pct compares against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func (r *recorder) begin(req int, name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Req: req, ID: len(r.spans), Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

// shortcutRequest and shortcutResponse mirror the daemon's JSON shapes
// (package main of cmd/locshortd, which cannot be imported).
type shortcutRequest struct {
	Graph     string  `json:"graph"`
	Partition string  `json:"partition,omitempty"`
	Parts     [][]int `json:"parts,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Options   string  `json:"options,omitempty"`
	Async     bool    `json:"async,omitempty"`
}

type shortcutResponse struct {
	Shortcut     string  `json:"shortcut"`
	Graph        string  `json:"graph"`
	Cached       bool    `json:"cached"`
	Source       string  `json:"source"`
	BuildMillis  float64 `json:"build_ms"`
	Delta        int     `json:"delta"`
	Congestion   int     `json:"congestion"`
	Dilation     int     `json:"dilation"`
	MaxBlocks    int     `json:"max_blocks"`
	CoveredParts int     `json:"covered_parts"`
}

// replayEnv is one in-process serving stack: a store on its own directory
// and an engine over it, at the daemon's defaults.
type replayEnv struct {
	st   *store.Store
	eng  *service.Engine
	memo map[string]*partition.Partition
}

// partMemoLimit matches the daemon's partition memo cap.
const partMemoLimit = 4096

func newReplayEnv(p *plan, dir, dataset string) (*replayEnv, error) {
	if dataset != "" {
		if err := copyDir(dataset, dir); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	e := &replayEnv{
		st: st,
		eng: service.New(service.Config{
			CacheCapacity: 64, Store: st, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(128),
		}),
		memo: make(map[string]*partition.Partition),
	}
	if _, err := e.eng.WarmStart(); err != nil {
		e.close()
		return nil, err
	}
	for gi, g := range p.graphs {
		fp, err := e.eng.AddGraph(g)
		if err != nil || fp != p.fps[gi] {
			e.close()
			return nil, fmt.Errorf("register %s: fingerprint %s, %v", p.w.catalog[gi], fp, err)
		}
	}
	if p.w.prewarm {
		var off recorder
		i := 0
		for gi, seeds := range p.keySeeds {
			for _, s := range seeds {
				for _, bin := range []bool{false, true} {
					r := request{graph: gi, seed: s, binary: bin}
					if err := e.serve(i, r, requestBody(p, r), &off); err != nil {
						e.close()
						return nil, err
					}
					i++
				}
			}
		}
		// Binary answers should read the persisted record, as in the
		// daemon's steady state.
		for st := e.eng.Stats(); st.StoreWrites < st.Builds; st = e.eng.Stats() {
			if st.StoreErrors > 0 {
				e.close()
				return nil, fmt.Errorf("%d store errors while pre-warming", st.StoreErrors)
			}
			time.Sleep(readyPoll)
		}
	}
	return e, nil
}

func (e *replayEnv) close() {
	e.eng.Close()
	e.st.Close()
}

func requestBody(p *plan, r request) []byte {
	if r.binary {
		return wire.AppendShortcutRequest(nil, wire.ShortcutRequest{Graph: p.fps[r.graph], Partition: p.w.partSpec, Seed: r.seed})
	}
	return appendJSONRequest(nil, p.fps[r.graph].String(), p.w.partSpec, r.seed)
}

// serve runs one request through the layers, in the daemon's order:
// decode → partition (memoized) → key → engine → render.
func (e *replayEnv) serve(i int, r request, body []byte, rec *recorder) error {
	root := rec.begin(i, "request", -1)
	sp := rec.begin(i, "decode", root)
	var req shortcutRequest
	if r.binary {
		br, err := wire.DecodeShortcutRequest(body)
		if err != nil {
			return err
		}
		req = shortcutRequest{Graph: br.Graph.String(), Partition: br.Partition, Seed: br.Seed, Options: br.Options}
	} else {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return err
		}
	}
	rec.end(sp)
	fp, err := service.ParseFingerprint(req.Graph)
	if err != nil {
		return err
	}
	g, ok := e.eng.Graph(fp)
	if !ok {
		return service.ErrUnknownGraph
	}
	opts, err := cli.ParseBuildOptions(req.Options)
	if err != nil {
		return err
	}

	sp = rec.begin(i, "partition", root)
	pkey := req.Graph + "/" + req.Partition + "/" + strconv.FormatInt(req.Seed, 10)
	parts, ok := e.memo[pkey]
	if !ok {
		if parts, err = cli.ParsePartition(g, req.Partition, req.Seed); err != nil {
			return err
		}
		if len(e.memo) < partMemoLimit {
			e.memo[pkey] = parts
		}
	}
	rec.end(sp)

	sp = rec.begin(i, "key", root)
	key := service.ShortcutKey(fp, parts, opts)
	rec.end(sp)

	sp = rec.begin(i, "engine", root)
	c, hit, err := e.eng.Build(context.Background(), service.BuildRequest{Graph: fp, Options: opts, Parts: parts})
	rec.end(sp)
	if err != nil {
		return err
	}
	if c.Key != key {
		return fmt.Errorf("engine key %s, ShortcutKey %s", c.Key, key)
	}

	sp = rec.begin(i, "render", root)
	if r.binary {
		// The daemon encodes a fresh payload only while the record is not
		// yet durable.
		if _, ok, err := e.st.ShortcutPayload(c.Key); err != nil || !ok {
			store.EncodeShortcutRecordPayload(c.GraphFP, c.Parts, opts, c.Result, c.BuildTime)
		}
	} else {
		q := c.Quality()
		source := "cache"
		if !hit {
			source = c.Source.String()
		}
		if _, err := json.Marshal(shortcutResponse{
			Shortcut: c.Key.String(), Graph: c.GraphFP.String(), Cached: hit, Source: source,
			BuildMillis: float64(c.BuildTime.Microseconds()) / 1000, Delta: c.Result.Delta,
			Congestion: q.Congestion, Dilation: q.Dilation, MaxBlocks: q.MaxBlocks, CoveredParts: q.CoveredParts,
		}); err != nil {
			return err
		}
	}
	rec.end(sp)
	rec.end(root)
	return nil
}

// replayResult holds the spans of the traced passes and the timing of the
// interleaved traced/untraced passes.
type replayResult struct {
	spans    []span
	tracedNs int64 // best traced pass
	plainNs  int64 // best untraced pass
	self     map[string][]float64
}

const (
	// replayPairs is the number of interleaved traced/untraced passes.
	replayPairs = 3
	// warmReplayReps repeats the sequence within a pass when replaying it
	// changes no state (every key pre-warmed, no writes): 2000 cache hits
	// take tens of milliseconds, too short to time the tracing overhead.
	warmReplayReps = 10
)

// replay runs the workload's first requests through fresh in-process
// stacks, alternating traced and untraced passes, and writes the spans of
// the first traced pass to the spans file.
func (b *bench) replay(ctx context.Context, p *plan, dir, dataset string) (*replayResult, error) {
	reqs := p.firstRequests(p.w.replay)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = requestBody(p, r)
	}
	reps := 1
	if p.w.writeFrac == 0 {
		reps = warmReplayReps
	}
	rr := &replayResult{tracedNs: -1, plainNs: -1, self: make(map[string][]float64)}
	for pass := 0; pass < 2*replayPairs; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		traced := pass%2 == 0
		pdir := filepath.Join(dir, strconv.Itoa(pass))
		env, err := newReplayEnv(p, pdir, dataset)
		if err != nil {
			return nil, err
		}
		rec := &recorder{on: traced, spans: make([]span, 0, (len(pathLayers)+1)*len(reqs)*reps)}
		start := time.Now()
		rec.t0 = start
		for rep := 0; rep < reps; rep++ {
			for i, r := range reqs {
				if err := env.serve(rep*len(reqs)+i, r, bodies[i], rec); err != nil {
					env.close()
					return nil, fmt.Errorf("request %d: %w", i, err)
				}
			}
		}
		ns := time.Since(start).Nanoseconds()
		env.close()
		if err := os.RemoveAll(pdir); err != nil {
			return nil, err
		}
		best := &rr.plainNs
		if traced {
			best = &rr.tracedNs
			rr.addSelf(rec.spans)
			if rr.spans == nil {
				// One repetition's spans: every request records exactly
				// its root span and one span per layer.
				rr.spans = rec.spans[:(len(pathLayers)+1)*len(reqs)]
			}
		}
		if *best < 0 || ns < *best {
			*best = ns
		}
	}
	if err := writeSpans(b.spans, rr.spans); err != nil {
		return nil, err
	}
	return rr, nil
}

// addSelf accumulates per-layer self times (µs): a layer span's duration
// minus its children's (layer spans have none), and for the root span,
// the glue between layer calls.
func (rr *replayResult) addSelf(spans []span) {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		name := s.Name
		if s.Parent < 0 {
			name = "glue"
		}
		rr.self[name] = append(rr.self[name], float64(s.End-s.Start-children[s.ID])/1e3)
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metrics reports each layer's median self time, the trace overhead, and
// the attribution remainder.
func (rr *replayResult) metrics(w *window) []metric {
	var out []metric
	for _, l := range append(append([]string(nil), pathLayers...), "glue") {
		out = append(out, metric{Name: "trace." + l + "_self_us", Value: median(rr.self[l]), Unit: "us", Samples: len(rr.self[l])})
	}
	out = append(out,
		metric{Name: "trace.remainder_us", Value: rr.remainder(w), Unit: "us"},
		metric{Name: "trace_overhead_pct", Value: 100 * float64(rr.tracedNs-rr.plainNs) / float64(rr.plainNs), Unit: "%"},
	)
	return out
}

// pathMeanUs is the mean in-process path: the sum of the layers' mean
// self times plus the glue between them. Means, unlike medians, add up.
func (rr *replayResult) pathMeanUs() float64 {
	sum := mean(rr.self["glue"])
	for _, l := range pathLayers {
		sum += mean(rr.self[l])
	}
	return sum
}

// remainder is what the attribution leaves unexplained: client mean minus
// the in-process path minus the client–server gap, i.e. the daemon's own
// mean minus the in-process path.
func (rr *replayResult) remainder(w *window) float64 {
	return serverMeanUs(w) - rr.pathMeanUs()
}

func serverMeanUs(w *window) float64 {
	n := w.after.shortN - w.before.shortN
	if n == 0 {
		return 0
	}
	return (w.after.shortSum - w.before.shortSum) / n * 1e6
}

// attribution renders the workload's attribution row.
func (rr *replayResult) attribution(name string, w *window) string {
	client := mean(w.lat) / 1e3
	server := serverMeanUs(w)
	var parts []string
	for _, l := range append(append([]string(nil), pathLayers...), "glue") {
		parts = append(parts, fmt.Sprintf("%s %.1f", l, mean(rr.self[l])))
	}
	return fmt.Sprintf("%s attribution (means, us): client %.1f = layers %.1f [%s]"+
		" + locshortd.unattributed_us %.1f (client minus daemon mean %.1f)"+
		" + remainder %.1f (daemon mean minus in-process layers: HTTP server, mux, middleware, worker hand-offs, load)",
		name, client, rr.pathMeanUs(), strings.Join(parts, " + "), client-server, server, rr.remainder(w))
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
