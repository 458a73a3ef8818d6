//go:build !race

package cli

const raceEnabled = false
