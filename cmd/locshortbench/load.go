package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/wire"
)

// Window phases, read by callers at the start of every request.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// Correctness sampling: every sampleEvery-th timed request of a caller is
// kept, up to maxSamples per caller, and checked after the window, so the
// generator stays light while the window runs.
const (
	sampleEvery = 37
	maxSamples  = 24
)

// sample is one kept response.
type sample struct {
	req   request
	key   string // the key the daemon answered with
	graph string
	// JSON responses report the measured quality; binary ones carry the
	// canonical shortcut record payload instead.
	congestion, dilation int
	payload              []byte
}

// Latency classes for the per-class medians.
const (
	classJSON = iota
	classBinary
	classRead
	classWrite
	numClasses
)

var classNames = [numClasses]string{"json", "binary", "read", "write"}

// caller is one closed-loop client.
type caller struct {
	stream *stream
	conns  []*conn // one keep-alive connection per node, dialed on first use
	buf    []byte
	onDone func() // called after every successful request

	lat        []int64 // timed, successful requests, ns
	classLat   [numClasses][]int64
	attempted  int
	failed     int
	firstErr   error
	sources    map[string]int
	samples    []sample
	violations []string
	timed      int
}

func newCaller(id int, p *plan, dep *deployment) *caller {
	return &caller{stream: p.stream(id), conns: dep.conns(), sources: make(map[string]int)}
}

// conns returns one undialed connection per node.
func (dep *deployment) conns() []*conn {
	cs := make([]*conn, len(dep.nodes))
	for i, d := range dep.nodes {
		cs[i] = &conn{addr: d.addr}
	}
	return cs
}

func (c *caller) close() {
	for _, cn := range c.conns {
		cn.close()
	}
}

// response is what a caller keeps from one answer.
type response struct {
	status   int
	key      string
	graph    string
	source   string
	servedBy string // cluster node that executed the request
	body     []byte // valid until the caller's next request
}

// do sends one request and reads the whole answer.
func (c *caller) do(p *plan, r request) (response, error) {
	if r.binary {
		c.buf = wire.AppendShortcutRequest(c.buf[:0], wire.ShortcutRequest{Graph: p.fps[r.graph], Partition: p.w.partSpec, Seed: r.seed})
	} else {
		c.buf = appendJSONRequest(c.buf[:0], p.fps[r.graph].String(), p.w.partSpec, r.seed)
	}
	out, err := c.conns[r.node].post("/v1/shortcuts", r.binary, c.buf)
	if err != nil {
		return out, err
	}
	if out.status != http.StatusOK {
		return out, fmt.Errorf("POST /v1/shortcuts: status %d: %s", out.status, strings.TrimSpace(string(out.body)))
	}
	if !r.binary {
		out.source = jsonField(out.body, "source")
	}
	return out, nil
}

func appendJSONRequest(b []byte, graph, partSpec string, seed int64) []byte {
	b = append(b, `{"graph":"`...)
	b = append(b, graph...)
	b = append(b, `","partition":"`...)
	b = append(b, partSpec...)
	b = append(b, `","seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	return append(b, '}')
}

// jsonField extracts a string field from a flat JSON response without a
// full decode; full decodes are kept for the sampled responses.
func jsonField(b []byte, name string) string {
	i := bytes.Index(b, []byte(`"`+name+`":"`))
	if i < 0 {
		return ""
	}
	rest := b[i+len(name)+4:]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// loop runs the closed loop until the phase turns to stop.
func (c *caller) loop(p *plan, phase *atomic.Int32) {
	for {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		r := c.stream.next()
		start := time.Now()
		resp, err := c.do(p, r)
		d := time.Since(start).Nanoseconds()
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.onDone()
		src := strings.TrimPrefix(resp.source, "forward:")
		if p.w.readsMustHit && !r.write && src == "built" && len(c.violations) < 8 {
			c.violations = append(c.violations,
				fmt.Sprintf("read of resident key (graph %d, seed %d) reports source built", r.graph, r.seed))
		}
		if ph != phaseMeasure {
			continue
		}
		c.lat = append(c.lat, d)
		cls := classJSON
		if r.binary {
			cls = classBinary
		}
		c.classLat[cls] = append(c.classLat[cls], d)
		if p.w.writeFrac > 0 && p.w.writeFrac < 1 {
			cls = classRead
			if r.write {
				cls = classWrite
			}
			c.classLat[cls] = append(c.classLat[cls], d)
		}
		c.sources[src]++
		if c.timed%sampleEvery == 0 && len(c.samples) < maxSamples {
			if s, err := keepSample(r, resp); err != nil {
				c.violations = append(c.violations, err.Error())
			} else {
				c.samples = append(c.samples, s)
			}
		}
		c.timed++
	}
}

func keepSample(r request, resp response) (sample, error) {
	s := sample{req: r, key: resp.key, graph: resp.graph}
	if r.binary {
		s.payload = bytes.Clone(resp.body)
		return s, nil
	}
	var j struct {
		Shortcut   string `json:"shortcut"`
		Graph      string `json:"graph"`
		Congestion int    `json:"congestion"`
		Dilation   int    `json:"dilation"`
	}
	if err := json.Unmarshal(resp.body, &j); err != nil {
		return s, fmt.Errorf("undecodable JSON response: %v", err)
	}
	s.key, s.graph, s.congestion, s.dilation = j.Shortcut, j.Graph, j.Congestion, j.Dilation
	return s, nil
}

// window is the outcome of one timed closed-loop window.
type window struct {
	lat        []int64
	classLat   [numClasses][]int64
	attempted  int
	failed     int
	firstErr   error
	ok         int // timed successful requests
	elapsed    time.Duration
	sources    map[string]int
	samples    []sample
	violations []string

	before, after serverSnap
	steal         float64       // host steal share over the window
	genCPU        time.Duration // this process's CPU time over the window

	rssMiB float64 // peak RSS summed over the daemons
	rssAt  int64   // completed requests when it was read
}

// runWindow warms the deployment up with traffic, then times `seconds` of
// closed-loop load, bracketed by server-side snapshots.
func runWindow(ctx context.Context, p *plan, dep *deployment, warmup, seconds time.Duration) (*window, error) {
	// The callers spend their time blocked on the daemon; one P serves
	// them, and the generator's idle Ps then do not spin on the vCPUs the
	// daemon needs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var phase atomic.Int32
	// The caller completing request number rssAfter reads peak RSS;
	// wg.Wait orders its writes before the reads below.
	var done atomic.Int64
	var rss struct {
		mib float64
		at  int64
		err error
	}
	countDone := func() {
		if n := done.Add(1); n == int64(p.w.rssAfter) {
			rss.mib, rss.err = dep.peakRSSMiB()
			rss.at = n
		}
	}
	cs := make([]*caller, callers)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = newCaller(i, p, dep)
		cs[i].onDone = countDone
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.loop(p, &phase)
		}(cs[i])
	}
	defer func() {
		phase.Store(phaseStop)
		wg.Wait()
		for _, c := range cs {
			c.close()
		}
	}()
	if err := sleepCtx(ctx, warmup); err != nil {
		return nil, err
	}
	w := &window{sources: make(map[string]int)}
	var err error
	if w.before, err = dep.snapshot(); err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	gen0, err := procCPUTicks(selfPID)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	phase.Store(phaseMeasure)
	if err := sleepCtx(ctx, seconds); err != nil {
		return nil, err
	}
	phase.Store(phaseStop)
	w.elapsed = time.Since(start)
	wg.Wait()
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	gen1, err := procCPUTicks(selfPID)
	if err != nil {
		return nil, err
	}
	w.steal = stealShare(host0, host1)
	w.genCPU = time.Duration(gen1-gen0) * clockTick
	if w.after, err = dep.snapshot(); err != nil {
		return nil, err
	}
	if rss.at == 0 {
		rss.mib, rss.err = dep.peakRSSMiB()
		rss.at = done.Load()
	}
	if rss.err != nil {
		return nil, rss.err
	}
	w.rssMiB, w.rssAt = rss.mib, rss.at
	for _, c := range cs {
		w.lat = append(w.lat, c.lat...)
		for k := range c.classLat {
			w.classLat[k] = append(w.classLat[k], c.classLat[k]...)
		}
		w.attempted += c.attempted
		w.failed += c.failed
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
		w.ok += len(c.lat)
		for k, v := range c.sources {
			w.sources[k] += v
		}
		w.samples = append(w.samples, c.samples...)
		w.violations = append(w.violations, c.violations...)
	}
	if w.ok == 0 {
		if w.firstErr != nil {
			return nil, fmt.Errorf("no request succeeded: %w", w.firstErr)
		}
		return nil, errors.New("no request completed in the window")
	}
	return w, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// postShortcut is a single control-plane /v1/shortcuts request (set-up
// pre-warm, probes, correctness fetches) through the given node, on the
// deployment's own connections.
func (dep *deployment) postShortcut(p *plan, r request) (response, error) {
	if dep.ctl == nil {
		dep.ctl = &caller{conns: dep.conns()}
	}
	resp, err := dep.ctl.do(p, r)
	if err != nil {
		return resp, err
	}
	resp.body = bytes.Clone(resp.body)
	if !r.binary {
		resp.key = jsonField(resp.body, "shortcut")
		resp.graph = jsonField(resp.body, "graph")
		resp.servedBy = jsonField(resp.body, "served_by")
	}
	return resp, nil
}
