//go:build !race

package shortcut

const raceEnabled = false
