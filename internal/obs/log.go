package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NewRequestID returns a 16-hex-char random ID for correlating log lines,
// traces, and responses. Collisions across a daemon's lifetime are
// astronomically unlikely (64 random bits); IDs are not secrets. The hex
// digits are written into an array and copied out once, so an ID costs
// one allocation.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// process-local sequence rather than crashing the request path.
		return fmt.Sprintf("seq-%d", seqID.next())
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

var seqID idSeq

type idSeq struct {
	mu sync.Mutex
	n  uint64
}

func (s *idSeq) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

// Logger writes structured key=value lines: a timestamp, a level, a message,
// then sorted-stable key=value pairs in the order given. Values containing
// spaces, quotes, or '=' are quoted with strconv.Quote so lines stay
// machine-splittable. Safe for concurrent use.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test seam
}

// NewLogger returns a logger writing to w.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w, now: time.Now}
}

// Info writes an info-level line. kv must alternate key, value.
func (l *Logger) Info(msg string, kv ...any) { l.log("info", msg, kv) }

// Warn writes a warn-level line.
func (l *Logger) Warn(msg string, kv ...any) { l.log("warn", msg, kv) }

// Error writes an error-level line.
func (l *Logger) Error(msg string, kv ...any) { l.log("error", msg, kv) }

func (l *Logger) log(level, msg string, kv []any) {
	if l == nil {
		return
	}
	var b strings.Builder
	b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(level)
	b.WriteString(" msg=")
	b.WriteString(logValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(logValue(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !odd_kv=")
		b.WriteString(logValue(kv[len(kv)-1]))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// logValue renders a value, quoting only when needed to keep lines
// splittable on spaces.
func logValue(v any) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case time.Duration:
		s = t.String()
	case error:
		s = t.Error()
	default:
		s = fmt.Sprint(v)
	}
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
