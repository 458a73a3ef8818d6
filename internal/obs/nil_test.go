package obs

import (
	"testing"
	"time"
)

// TestNilInstrumentsAreNoOps is the regression test for the documented
// instrument contract: a nil Counter, Gauge, Histogram, Logger, Tracer,
// or TraceBuilder must be a silent no-op, so unobserved layers can record
// unconditionally. Before the obsnil analyzer existed, only Logger and
// Tracer honored it — Counter.Inc, Gauge.Set, Histogram.Observe, and
// every TraceBuilder method dereferenced a nil receiver and panicked.
// Each call below crashed on the pre-fix tree.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if got := c.Value(); got != 0 {
		t.Errorf("nil Counter.Value() = %d, want 0", got)
	}

	var g *Gauge
	g.Set(42)
	g.Add(-1)
	if got := g.Value(); got != 0 {
		t.Errorf("nil Gauge.Value() = %d, want 0", got)
	}

	var h *Histogram
	h.Observe(3 * time.Millisecond)
	if snap := h.Snapshot(); snap.Count() != 0 || len(snap.Counts) != 0 {
		t.Errorf("nil Histogram.Snapshot() = %+v, want zero snapshot", snap)
	}

	var l *Logger
	l.Info("dropped", "k", "v")
	l.Warn("dropped")
	l.Error("dropped", "err", "nope")

	var tb *TraceBuilder
	tb.SetFingerprint("deadbeef")
	tb.Add("stage", 0, time.Millisecond)
	if got := tb.Elapsed(); got != 0 {
		t.Errorf("nil TraceBuilder.Elapsed() = %v, want 0", got)
	}
	if got := tb.Finish(); got != nil {
		t.Errorf("nil TraceBuilder.Finish() = %v, want nil", got)
	}

	var tr *Tracer
	tr.Publish(&Trace{ID: "x"})
	tr.Publish(tb.Finish())
	if got := tr.Recent(5); got != nil {
		t.Errorf("nil Tracer.Recent() = %v, want nil", got)
	}
	if got := tr.Published(); got != 0 {
		t.Errorf("nil Tracer.Published() = %d, want 0", got)
	}
}
