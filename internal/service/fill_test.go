package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
)

// engineHistogramCount is the observation count of the engine histogram
// name, read off reg's exposition.
func engineHistogramCount(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParsePrometheus(&b)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := sc.Histogram(name, nil)
	if !ok {
		t.Fatalf("no %s in the exposition", name)
	}
	return h.Count()
}

// spanNames lists the span names of the one trace tr holds.
func spanNames(t *testing.T, tr *obs.Tracer) []string {
	t.Helper()
	traces := tr.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("%d traces published, want 1", len(traces))
	}
	var names []string
	for _, sp := range traces[0].Spans {
		names = append(names, sp.Name)
	}
	return names
}

// TestJSONMissOneJob: a miss that asks its fill to measure, as a JSON
// answer's does, is one worker job. The fill measures before it releases
// the caller, so the quality is ready, jobs_done and the job histogram
// move by one, and the trace it publishes names the spans that a build
// followed by a MeasureCached job publishes.
func TestJSONMissOneJob(t *testing.T) {
	ctx := context.Background()
	g, p := testGraph(t)
	run := func(measure bool) (*Cached, []string, uint64, uint64) {
		reg, tr := obs.NewRegistry(), obs.NewTracer(8)
		e := newTestEngine(t, Config{Workers: 1, Store: newStubStore(), Obs: reg, Tracer: tr})
		fp, err := e.AddGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		c, hit, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p, Measure: measure})
		if err != nil || hit || c.Source != SourceBuilt {
			t.Fatalf("measure=%v: Build: hit=%v err=%v", measure, hit, err)
		}
		if _, ok := c.QualityIfReady(); ok != measure {
			t.Fatalf("measure=%v: QualityIfReady ok=%v after the miss", measure, ok)
		}
		if !measure {
			if _, err := e.MeasureCached(ctx, c); err != nil {
				t.Fatal(err)
			}
		}
		return c, spanNames(t, tr), e.Stats().JobsDone, engineHistogramCount(t, reg, "locshort_engine_job_seconds")
	}
	c, names, jobs, observed := run(true)
	if jobs != 1 || observed != 1 {
		t.Errorf("a measuring miss ran %d jobs (%d timed), want 1", jobs, observed)
	}
	if q, _ := c.QualityIfReady(); q != shortcut.Measure(c.Result.Shortcut) {
		t.Errorf("the fill's quality %+v is not Measure's", q)
	}
	want := []string{"store_check", "choose_root", "bfs_tree", "level(d=1)", "sweep", "assemble", "measure"}
	if !slices.Equal(names, want) {
		t.Errorf("a measuring miss traced %v, want %v", names, want)
	}
	_, twoJobNames, jobs, observed := run(false)
	if jobs != 2 || observed != 2 {
		t.Errorf("a miss then MeasureCached ran %d jobs (%d timed), want 2", jobs, observed)
	}
	if !slices.Equal(names, twoJobNames) {
		t.Errorf("a measuring miss traced %v, a miss then MeasureCached %v", names, twoJobNames)
	}
}

// TestBinaryMissMeasuresNothing: a miss that does not ask to measure, as
// a binary answer's does not, leaves locshort_engine_measure_seconds as it
// was, on a construction and on a store hit alike.
func TestBinaryMissMeasuresNothing(t *testing.T) {
	ctx := context.Background()
	g, p := testGraph(t)
	st := newStubStore()
	for _, want := range []BuildSource{SourceBuilt, SourceStore} {
		reg := obs.NewRegistry()
		e := New(Config{Workers: 1, Store: st, Obs: reg, Tracer: obs.NewTracer(8)})
		fp, err := e.AddGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p})
		if err != nil || c.Source != want {
			t.Fatalf("Build = %v; want a %s entry", err, want)
		}
		if _, ok := c.QualityIfReady(); ok {
			t.Errorf("a binary miss's %s entry came back measured", want)
		}
		if n := engineHistogramCount(t, reg, "locshort_engine_measure_seconds"); n != 0 {
			t.Errorf("a binary miss's %s entry was measured %d times, want 0", want, n)
		}
		e.Close() // drains the persist the store hit reads
	}
}

// brokenEntry builds grid:8x8 blobs:4 and corrupts one H edge ID past the
// graph's edges, so measuring it or installing its routing panics.
func brokenEntry(t *testing.T) (*Engine, *Cached) {
	t.Helper()
	g := graph.Grid(8, 8)
	p, err := partition.BFSBlobs(g, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Workers: 1})
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range c.Result.Shortcut.H {
		if len(h) > 0 {
			h[0] = g.NumEdges() + 5
			return e, c
		}
	}
	t.Fatal("no part has an H edge")
	return nil, nil
}

// TestPanickedMeasureNotMemoized: a measurement that panics memoizes no
// quality. Every MeasureCached fails with the panic — never a zero Quality
// with a nil error, which a sync.Once that counted the panicking run as
// done handed out from the second call on — and QualityIfReady stays
// false. Routing likewise never returns a nil routing with a nil error
// after a panic.
func TestPanickedMeasureNotMemoized(t *testing.T) {
	e, c := brokenEntry(t)
	for i := range 3 {
		q, err := e.MeasureCached(context.Background(), c)
		var pe *obs.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("MeasureCached call %d = %+v, %v; want the measurement's panic", i+1, q, err)
		}
	}
	if q, ok := c.QualityIfReady(); ok {
		t.Errorf("QualityIfReady = %+v, true after panicked measurements", q)
	}
	if got := e.Stats().JobPanics; got != 3 {
		t.Errorf("job_panics = %d, want 3", got)
	}
	for i := range 3 {
		if r, err, panicked := routingOf(c); !panicked {
			t.Fatalf("Routing call %d = %v, %v; want the installation's panic", i+1, r, err)
		}
	}
}

// routingOf calls c.Routing, reporting a panic instead of propagating it.
func routingOf(c *Cached) (r *dist.PARouting, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	r, err = c.Routing()
	return r, err, false
}

// TestFillMeasurePanicFailsOnlyTheAnswer: when the Measure of a fill that
// asked to measure panics, the fill still succeeds. The entry is cached
// unmeasured and the panic counts in job_panics; the JSON answer's
// MeasureCached then measures again and fails with the panic, while a
// binary answer, which never measures, is served from the entry.
func TestFillMeasurePanicFailsOnlyTheAnswer(t *testing.T) {
	ctx := context.Background()
	g, p := testGraph(t)
	st := newStubStore()
	e := newTestEngine(t, Config{Workers: 1, Store: st})
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := e.Graph(fp)
	res, err := shortcut.Build(rep, p, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Shortcut.H {
		if len(h) > 0 {
			h[0] = rep.NumEdges() + 5
			break
		}
	}
	key := ShortcutKey(fp, p, shortcut.Options{})
	st.shortcuts[key] = res // a stored record whose measurement panics
	c, _, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p, Measure: true})
	if err != nil || c.Source != SourceStore {
		t.Fatalf("Build = %v, %v; want the stored entry", c, err)
	}
	if _, ok := c.QualityIfReady(); ok {
		t.Error("a fill whose Measure panicked handed out a measured entry")
	}
	s := e.Stats()
	if s.JobPanics != 1 || s.JobsDone != 1 || s.JobsFailed != 0 {
		t.Errorf("job_panics %d, jobs_done %d, jobs_failed %d; want 1, 1, 0", s.JobPanics, s.JobsDone, s.JobsFailed)
	}
	var pe *obs.PanicError
	if _, err := e.MeasureCached(ctx, c); !errors.As(err, &pe) {
		t.Errorf("MeasureCached = %v, want the measurement's panic", err)
	}
	if again, hit, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p}); err != nil || !hit || again != c {
		t.Errorf("the entry is not cached: %v, hit=%v, %v", again, hit, err)
	}
}

// TestQualityMeasuredOnceConcurrently: callers racing for an unmeasured
// entry's quality — MeasureCached jobs, direct Quality calls and
// QualityIfReady polls — measure it once, publish one trace, and all read
// the one value. CI runs it under -race -count=10.
func TestQualityMeasuredOnceConcurrently(t *testing.T) {
	ctx := context.Background()
	g, p := testGraph(t)
	reg, tr := obs.NewRegistry(), obs.NewTracer(8)
	e := newTestEngine(t, Config{Workers: 4, Obs: reg, Tracer: tr})
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := e.Build(ctx, BuildRequest{Graph: fp, Parts: p})
	if err != nil {
		t.Fatal(err)
	}
	want := shortcut.Measure(c.Result.Shortcut)
	var wg sync.WaitGroup
	for i := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q shortcut.Quality
			switch i % 3 {
			case 0:
				var err error
				if q, err = e.MeasureCached(ctx, c); err != nil {
					t.Error(err)
					return
				}
			case 1:
				q = c.Quality()
			default:
				ok := false
				for !ok {
					q, ok = c.QualityIfReady()
				}
			}
			if q != want {
				t.Errorf("caller %d read %+v, want %+v", i, q, want)
			}
		}()
	}
	wg.Wait()
	if n := engineHistogramCount(t, reg, "locshort_engine_measure_seconds"); n != 1 {
		t.Errorf("measured %d times, want 1", n)
	}
	if n := tr.Published(); n != 1 {
		t.Errorf("%d traces published, want 1", n)
	}
}
