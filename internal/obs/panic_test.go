package obs

import (
	"strings"
	"sync"
	"testing"
)

// panicOnHelper panics on a goroutine of its own; a named function, so
// its frame can be looked for in a stack.
func panicOnHelper() *PanicError {
	var pe *PanicError
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { pe = Recovered(recover()) }()
		panicInStep()
	}()
	wg.Wait()
	return pe
}

func panicInStep() { panic("boom") }

// TestRepanicKeepsOriginalStack re-raises a helper goroutine's panic on
// the waiting goroutine. A recover there gets the helper's *PanicError
// back, stack included; a crash that nothing recovers prints the value's
// Error, which carries the frame where the panic began.
func TestRepanicKeepsOriginalStack(t *testing.T) {
	pe := panicOnHelper()
	if pe == nil || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "panicInStep") {
		t.Fatalf("helper recovered %+v, want boom with panicInStep on its stack", pe)
	}
	var v any
	func() {
		defer func() { v = recover() }()
		Repanic(pe)
	}()
	err, ok := v.(error)
	if !ok {
		t.Fatalf("Repanic raised %T, want an error the runtime prints with Error", v)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "boom\n") || !strings.Contains(msg, "panicInStep") {
		t.Errorf("unrecovered crash would print %q, want the value and the original stack", msg)
	}
	if got := Recovered(v); got != pe {
		t.Errorf("Recovered(re-raised) = %+v, want the helper's *PanicError", got)
	}
	if got := pe.Error(); got != "panic: boom" {
		t.Errorf("PanicError.Error() = %q, want the value without the stack", got)
	}
}
