package graph

import (
	"errors"
	"fmt"
)

// MaxNodes and MaxEdges bound every graph built from sizes that arrive
// from outside the process: a family spec (cli.ParseGraph) and a JSON edge
// list check both, and a binary graph payload from the network
// (store.DecodeGraphPayload) checks its header's node count; its edge
// count is pinned by its length. Each path checks before it allocates
// anything sized from them. MaxEdges admits the ~2.8M edges a 64 MiB
// binary body can carry (24 bytes each), and MaxNodes every connected
// graph with that many edges. The store's own records are held to a
// looser node bound, since earlier releases stored graphs without these
// limits.
const (
	MaxNodes = 1 << 22
	MaxEdges = 1 << 22
)

// ErrTooLarge reports a graph over MaxNodes or MaxEdges.
var ErrTooLarge = errors.New("graph: over the size limit")

// CheckSize returns an error wrapping ErrTooLarge if a graph with n nodes
// and m edges would pass MaxNodes or MaxEdges.
func CheckSize(n, m int) error {
	switch {
	case n > MaxNodes:
		return fmt.Errorf("%w: %d nodes, limit %d", ErrTooLarge, n, MaxNodes)
	case m > MaxEdges:
		return fmt.Errorf("%w: %d edges, limit %d", ErrTooLarge, m, MaxEdges)
	}
	return nil
}
