package obs

import (
	"sync"
	"time"
)

// Span is one timed stage inside a trace. DurNs rather than time.Duration
// keeps the JSON rendering of /v1/traces explicit about units.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // offset from the trace start
	DurNs   int64  `json:"dur_ns"`
}

// Trace is one completed operation (a cold shortcut construction) with its
// stage breakdown. A Trace is immutable once published to a Tracer; writers
// build it privately and hand it over whole.
type Trace struct {
	ID          string `json:"id"`
	Op          string `json:"op"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Start       int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
	Spans       []Span `json:"spans"`
}

// TraceBuilder accumulates spans for one in-flight operation. It is not
// safe for concurrent use; each construction owns its builder. A nil
// *TraceBuilder is a no-op — the untraced path calls through it freely.
//
// A builder is its trace's one allocation: it holds the Trace, and the
// first spans inline (every span of a cold build that accepts at its first
// level), and Finish hands out that Trace itself.
//
//locshort:nilsafe
type TraceBuilder struct {
	t      Trace
	start  time.Time
	inline [8]Span
}

// StartTrace begins a trace for the named operation, which began at start:
// a caller that decides late whether an operation is worth a trace makes
// it then, backdated, and every offset still counts from start.
func StartTrace(op string, start time.Time) *TraceBuilder {
	b := &TraceBuilder{
		t:     Trace{ID: NewRequestID(), Op: op, Start: start.UnixNano()},
		start: start,
	}
	b.t.Spans = b.inline[:0]
	return b
}

// SetFingerprint annotates the trace with the shortcut fingerprint.
func (b *TraceBuilder) SetFingerprint(fp string) {
	if b == nil {
		return
	}
	b.t.Fingerprint = fp
}

// Add appends a stage that started at the given offset from the trace start
// and ran for dur. Past the inline spans, the span list moves to the heap.
func (b *TraceBuilder) Add(name string, start, dur time.Duration) {
	if b == nil {
		return
	}
	b.t.Spans = append(b.t.Spans, Span{Name: name, StartNs: start.Nanoseconds(), DurNs: dur.Nanoseconds()})
}

// Elapsed returns the time since the trace started — the Start offset an
// Add call made now would use.
func (b *TraceBuilder) Elapsed() time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(b.start)
}

// Finish stamps the total duration and returns the completed, immutable
// trace, which lives in the builder: the builder must not be used
// afterwards.
func (b *TraceBuilder) Finish() *Trace {
	if b == nil {
		return nil
	}
	b.t.DurNs = time.Since(b.start).Nanoseconds()
	return &b.t
}

// Tracer retains the most recent traces in a fixed ring. Publish and Recent
// are safe for concurrent use; retained traces are immutable, so Recent's
// copies share span slices with writers without racing them. A nil *Tracer
// drops everything, like every obs instrument.
//
//locshort:nilsafe
type Tracer struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	n    uint64 // total published
}

// NewTracer returns a tracer retaining the last cap traces (min 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

// Publish retains a completed trace, evicting the oldest when full.
// A nil tracer drops the trace, so call sites need no guards.
func (tr *Tracer) Publish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.n++
	tr.mu.Unlock()
}

// Recent returns up to n retained traces, newest first. n <= 0 returns all.
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > len(tr.ring) {
		n = len(tr.ring)
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= len(tr.ring) && len(out) < n; i++ {
		t := tr.ring[(tr.next-i+len(tr.ring))%len(tr.ring)]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// Published returns the total number of traces ever published.
func (tr *Tracer) Published() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.n
}
