//go:build race

package shortcut

// raceEnabled reports a build with the race detector, which changes some
// allocation counts: it drops a random quarter of sync.Pool puts, and it
// moves some stack buffers to the heap.
const raceEnabled = true
