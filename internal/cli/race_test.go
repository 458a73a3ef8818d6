//go:build race

package cli

// raceEnabled reports a build with the race detector, which drops a random
// quarter of sync.Pool puts and so changes allocation counts.
const raceEnabled = true
