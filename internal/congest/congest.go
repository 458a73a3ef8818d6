package congest

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"locshort/internal/graph"
	"locshort/internal/obs"
)

// Msg is a CONGEST message: a kind tag plus four machine words, i.e.
// O(log n) bits for any polynomial-size network.
type Msg struct {
	Kind       uint8
	A, B, C, D int64
}

// Incoming is a message delivered to a node, annotated with its origin.
type Incoming struct {
	From int // sender node ID
	Edge int // graph edge ID it traveled on
	Msg  Msg
}

// Proc is a node program. Step is called once per round until the node
// halts. Implementations must interact with the network only through the
// Context.
type Proc interface {
	Step(ctx *Context)
}

// ProcFunc adapts a function to the Proc interface.
type ProcFunc func(ctx *Context)

// Step calls f.
func (f ProcFunc) Step(ctx *Context) { f(ctx) }

// Context is a node's view of the network during one round.
type Context struct {
	// Node is the executing node's ID.
	Node int
	// Round is the current round number, starting at 0.
	Round int
	// In holds the messages sent to this node in the previous round,
	// sorted by sender ID (ties broken by edge ID).
	In []Incoming

	net    *Network
	out    []sendReq
	used   map[int]bool // edge IDs used for sending this round
	halted bool
}

type sendReq struct {
	edge int
	to   int
	msg  Msg
}

// Degree returns the number of incident edges of the executing node.
func (c *Context) Degree() int { return c.net.g.Degree(c.Node) }

// Neighbors returns the executing node's arcs, in edge-ID order. The slice
// is owned by the network and must not be modified.
func (c *Context) Neighbors() []graph.Arc { return c.net.g.Neighbors(c.Node) }

// EdgeWeight returns the weight of an incident edge.
func (c *Context) EdgeWeight(edge int) float64 { return c.net.g.Edge(edge).W }

// NumNodes returns n. CONGEST algorithms conventionally know n (or a
// polynomial upper bound); it determines the message-size budget.
func (c *Context) NumNodes() int { return c.net.g.NumNodes() }

// Send transmits m to a neighbor over the given incident edge. It panics if
// the edge is not incident to the node or was already used this round —
// both are protocol bugs, not runtime conditions.
func (c *Context) Send(edge int, m Msg) {
	e := c.net.g.Edge(edge)
	var to int
	switch c.Node {
	case e.U:
		to = e.V
	case e.V:
		to = e.U
	default:
		panic(fmt.Sprintf("congest: node %d sending on non-incident edge %d", c.Node, edge))
	}
	if c.used == nil {
		c.used = make(map[int]bool, 4)
	}
	if c.used[edge] {
		panic(fmt.Sprintf("congest: node %d sent twice on edge %d in round %d (CONGEST allows one message per edge per direction per round)",
			c.Node, edge, c.Round))
	}
	c.used[edge] = true
	c.out = append(c.out, sendReq{edge: edge, to: to, msg: m})
}

// SendTo transmits m to the given neighbor node, picking the first unused
// incident edge to it. It panics if no unused edge to the neighbor exists.
func (c *Context) SendTo(neighbor int, m Msg) {
	for _, a := range c.net.g.Neighbors(c.Node) {
		if a.To == neighbor && (c.used == nil || !c.used[a.Edge]) {
			c.Send(a.Edge, m)
			return
		}
	}
	panic(fmt.Sprintf("congest: node %d has no unused edge to %d", c.Node, neighbor))
}

// Broadcast sends m over every incident edge not yet used this round.
func (c *Context) Broadcast(m Msg) {
	for _, a := range c.net.g.Neighbors(c.Node) {
		if c.used == nil || !c.used[a.Edge] {
			c.Send(a.Edge, m)
		}
	}
}

// Halt marks the node as finished; Step will not be called again. Messages
// already sent this round are still delivered; later messages addressed to
// a halted node are counted but not processed.
func (c *Context) Halt() { c.halted = true }

// Stats aggregates the cost measures the paper's theorems bound.
type Stats struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// ActiveRounds is one past the last round in which any message was
	// sent: the protocol's effective round complexity under quiescence
	// ("implicit termination") accounting.
	ActiveRounds int
	// Messages is the total number of messages sent.
	Messages int64
	// EdgeMessages counts messages per edge ID (both directions), the
	// quantity behind congestion accounting.
	EdgeMessages []int64
}

// MaxEdgeMessages returns the maximum per-edge message count.
func (s *Stats) MaxEdgeMessages() int64 {
	var max int64
	for _, v := range s.EdgeMessages {
		if v > max {
			max = v
		}
	}
	return max
}

// Network is a CONGEST network instance binding a graph to node programs.
type Network struct {
	g       *graph.Graph
	procs   []Proc
	inboxes [][]Incoming
	halted  []bool
	stats   Stats
	workers int
}

// ErrRoundLimit is returned by Run when the round limit is reached before
// every node halts.
var ErrRoundLimit = errors.New("congest: round limit reached before all nodes halted")

// NewNetwork creates a network over g with one Proc per node.
func NewNetwork(g *graph.Graph, procs []Proc) (*Network, error) {
	if len(procs) != g.NumNodes() {
		return nil, fmt.Errorf("congest: %d procs for %d nodes", len(procs), g.NumNodes())
	}
	return &Network{
		g:       g,
		procs:   procs,
		inboxes: make([][]Incoming, g.NumNodes()),
		halted:  make([]bool, g.NumNodes()),
		stats:   Stats{EdgeMessages: make([]int64, g.NumEdges())},
		workers: runtime.GOMAXPROCS(0),
	}, nil
}

// Run executes rounds until every node has halted or maxRounds is reached,
// returning the accumulated statistics (also on error).
func (n *Network) Run(maxRounds int) (*Stats, error) {
	for round := n.stats.Rounds; ; round++ {
		if n.allHalted() {
			return &n.stats, nil
		}
		if round >= maxRounds {
			return &n.stats, fmt.Errorf("%w (limit %d)", ErrRoundLimit, maxRounds)
		}
		n.step(round)
		n.stats.Rounds = round + 1
	}
}

// RunFor executes exactly rounds additional rounds regardless of halting —
// used for protocols with a fixed deterministic schedule.
func (n *Network) RunFor(rounds int) *Stats {
	end := n.stats.Rounds + rounds
	for round := n.stats.Rounds; round < end; round++ {
		n.step(round)
		n.stats.Rounds = round + 1
	}
	return &n.stats
}

// RunUntilQuiet executes rounds until `grace` consecutive rounds pass with
// no message sent (or every node halts), up to maxRounds. Message-driven
// protocols that never restart after falling silent terminate exactly at
// quiescence; Stats.ActiveRounds is their round complexity. grace > 1
// accommodates protocols with bounded silent gaps in their schedules.
func (n *Network) RunUntilQuiet(maxRounds, grace int) (*Stats, error) {
	if grace < 1 {
		grace = 1
	}
	quiet := 0
	for round := n.stats.Rounds; ; round++ {
		if n.allHalted() || quiet >= grace {
			return &n.stats, nil
		}
		if round >= maxRounds {
			return &n.stats, fmt.Errorf("%w (limit %d)", ErrRoundLimit, maxRounds)
		}
		before := n.stats.Messages
		n.step(round)
		n.stats.Rounds = round + 1
		if n.stats.Messages == before {
			quiet++
		} else {
			quiet = 0
			n.stats.ActiveRounds = round + 1
		}
	}
}

func (n *Network) allHalted() bool {
	for _, h := range n.halted {
		if !h {
			return false
		}
	}
	return true
}

// step runs one synchronous round: all Steps execute against the previous
// round's inboxes, then the new messages are delivered.
func (n *Network) step(round int) {
	numNodes := n.g.NumNodes()
	ctxs := make([]*Context, numNodes)

	run := func(v int) {
		if n.halted[v] {
			return
		}
		ctx := &Context{Node: v, Round: round, In: n.inboxes[v], net: n}
		n.procs[v].Step(ctx)
		ctxs[v] = ctx
	}
	if n.workers > 1 && numNodes >= 64 {
		var wg sync.WaitGroup
		var panicked atomic.Pointer[obs.PanicError]
		chunk := (numNodes + n.workers - 1) / n.workers
		for w := 0; w < n.workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > numNodes {
				hi = numNodes
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				// A panicking Step would end the process, out of reach
				// of the caller's recover; it is re-raised on the
				// calling goroutine after the round instead.
				defer func() {
					if v := recover(); v != nil {
						panicked.CompareAndSwap(nil, obs.Recovered(v))
					}
				}()
				for v := lo; v < hi; v++ {
					run(v)
				}
			}(lo, hi)
		}
		wg.Wait()
		if pe := panicked.Load(); pe != nil {
			obs.Repanic(pe)
		}
	} else {
		for v := 0; v < numNodes; v++ {
			run(v)
		}
	}

	// Deliver: clear inboxes, then append sends in sender order.
	for v := range n.inboxes {
		n.inboxes[v] = nil
	}
	for v := 0; v < numNodes; v++ {
		ctx := ctxs[v]
		if ctx == nil {
			continue
		}
		if ctx.halted {
			n.halted[v] = true
		}
		for _, s := range ctx.out {
			n.stats.Messages++
			n.stats.EdgeMessages[s.edge]++
			n.inboxes[s.to] = append(n.inboxes[s.to], Incoming{From: v, Edge: s.edge, Msg: s.msg})
		}
	}
	for v := range n.inboxes {
		in := n.inboxes[v]
		sort.Slice(in, func(i, j int) bool {
			if in[i].From != in[j].From {
				return in[i].From < in[j].From
			}
			return in[i].Edge < in[j].Edge
		})
	}
}

// Stats returns the statistics accumulated so far.
func (n *Network) Stats() *Stats { return &n.stats }

// Halted reports whether node v has halted.
func (n *Network) Halted(v int) bool { return n.halted[v] }
