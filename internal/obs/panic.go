package obs

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic: the value passed to panic and the stack
// of the goroutine it began on. The service engine's workers and the job
// manager's dispatchers recover a panicking job into one, so that job fails
// and the process keeps serving; the layer that reports the failure logs
// Stack, and Error leaves it out, so a response body never carries it.
// Stack is nil for a panic another node reported (a cluster owner's 500
// names only the value; the owner logged the stack).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recovered wraps v, a non-nil value returned by recover, with the current
// goroutine's stack; call it from the deferred function that recovered. A
// panic raised by Repanic comes back as the *PanicError it carries,
// keeping the stack where the panic began.
func Recovered(v any) *PanicError {
	if r, ok := v.(reraised); ok {
		return r.pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Repanic raises pe, recovered on a helper goroutine, on the goroutine
// that waits for the helper, where a caller's recover can reach it. The
// value it panics with is an error whose message carries pe.Stack, so a
// crash that nothing recovers still prints where the panic began, not
// only where it was re-raised; Recovered unwraps it back to pe.
func Repanic(pe *PanicError) {
	panic(reraised{pe})
}

// reraised is the value Repanic panics with.
type reraised struct{ pe *PanicError }

func (r reraised) Error() string {
	return fmt.Sprintf("%v\n\nre-raised from the goroutine where the panic began:\n%s", r.pe.Value, r.pe.Stack)
}
