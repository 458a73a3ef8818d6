package graph

import (
	"errors"
	"fmt"
)

// MaxNodes and MaxEdges bound every graph built from sizes that arrive
// from outside the process: a family spec (cli.ParseGraph), a JSON edge
// list, and the header of a binary graph payload from the network
// (store.DecodeGraphPayload, store.VerifyPeerRecord) check both. Each path
// checks before it allocates anything sized from them; a payload's length
// bounds nothing, since the peer API reads payloads of up to 17+24·MaxEdges
// bytes. A 64 MiB binary ingest body holds only ~2.8M edges (24 bytes
// each), so there the body cap binds first. MaxNodes admits every
// connected graph with MaxEdges edges. The store's own records are held
// to a looser node bound and no edge bound, since earlier releases stored
// graphs without these limits.
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
