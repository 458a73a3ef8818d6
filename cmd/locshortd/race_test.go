//go:build race

package main

// raceEnabled reports a build with the race detector, which changes
// allocation counts: it drops a random quarter of sync.Pool puts and
// moves some stack buffers to the heap.
const raceEnabled = true
