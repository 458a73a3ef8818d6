package congest

import (
	"errors"
	"strings"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/obs"
)

// floodProc floods a token from node 0 and records the round it was first
// reached; every node halts one round after it has seen the token. It is a
// minimal BFS protocol: reachedAt should equal the BFS distance + 1.
type floodProc struct {
	id        int
	seen      bool
	reachedAt int
	relayed   bool
}

func (p *floodProc) Step(ctx *Context) {
	if !p.seen {
		if p.id == 0 && ctx.Round == 0 {
			p.seen = true
			p.reachedAt = 0
		}
		for range ctx.In {
			if !p.seen {
				p.seen = true
				p.reachedAt = ctx.Round
			}
		}
	}
	if p.seen && !p.relayed {
		ctx.Broadcast(Msg{Kind: 1})
		p.relayed = true
		return
	}
	if p.seen && p.relayed {
		ctx.Halt()
	}
}

func TestFloodMatchesBFS(t *testing.T) {
	g := graph.Grid(6, 6)
	procs := make([]Proc, g.NumNodes())
	fps := make([]*floodProc, g.NumNodes())
	for v := range procs {
		fps[v] = &floodProc{id: v}
		procs[v] = fps[v]
	}
	net, err := NewNetwork(g, procs)
	if err != nil {
		t.Fatalf("NewNetwork error = %v", err)
	}
	stats, err := net.Run(1000)
	if err != nil {
		t.Fatalf("Run error = %v", err)
	}
	dist := graph.BFS(g, 0).Dist
	for v, fp := range fps {
		if !fp.seen {
			t.Fatalf("node %d never reached", v)
		}
		want := dist[v]
		if v != 0 {
			want = dist[v] // token sent in round d-1 arrives in round d
		}
		if fp.reachedAt != want {
			t.Errorf("node %d reached at round %d, want %d", v, fp.reachedAt, want)
		}
	}
	if stats.Rounds > 2*(dist[len(dist)-1])+4 {
		t.Errorf("flood took %d rounds for diameter %d", stats.Rounds, dist[len(dist)-1])
	}
}

// counterProc counts rounds then halts.
type counterProc struct{ left int }

func (p *counterProc) Step(ctx *Context) {
	p.left--
	if p.left <= 0 {
		ctx.Halt()
	}
}

func TestRunHaltsAndCountsRounds(t *testing.T) {
	g := graph.Path(3)
	procs := []Proc{&counterProc{left: 5}, &counterProc{left: 2}, &counterProc{left: 7}}
	net, err := NewNetwork(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(100)
	if err != nil {
		t.Fatalf("Run error = %v", err)
	}
	if stats.Rounds != 7 {
		t.Errorf("Rounds = %d, want 7 (max halt time)", stats.Rounds)
	}
	if !net.Halted(0) || !net.Halted(1) || !net.Halted(2) {
		t.Error("not all nodes halted")
	}
}

func TestRunRoundLimit(t *testing.T) {
	g := graph.Path(2)
	net, err := NewNetwork(g, []Proc{&counterProc{left: 50}, &counterProc{left: 50}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.Run(10)
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("Run error = %v, want ErrRoundLimit", err)
	}
}

func TestNewNetworkSizeMismatch(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewNetwork(g, []Proc{&counterProc{}}); err == nil {
		t.Error("NewNetwork accepted proc/node mismatch")
	}
}

// pingProc sends to a fixed neighbor each round and records what it gets.
type pingProc struct {
	sendEdge int
	got      []Msg
	rounds   int
}

func (p *pingProc) Step(ctx *Context) {
	for _, in := range ctx.In {
		p.got = append(p.got, in.Msg)
	}
	if p.rounds == 0 {
		ctx.Halt()
		return
	}
	p.rounds--
	if p.sendEdge >= 0 {
		ctx.Send(p.sendEdge, Msg{Kind: 2, A: int64(ctx.Node), B: int64(ctx.Round)})
	}
}

func TestMessageDeliveryNextRound(t *testing.T) {
	g := graph.Path(2)
	a := &pingProc{sendEdge: 0, rounds: 1}
	b := &pingProc{sendEdge: -1, rounds: 2}
	net, err := NewNetwork(g, []Proc{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(10); err != nil {
		t.Fatalf("Run error = %v", err)
	}
	if len(b.got) != 1 {
		t.Fatalf("receiver got %d messages, want 1", len(b.got))
	}
	if b.got[0].A != 0 || b.got[0].B != 0 {
		t.Errorf("got message %+v, want sender 0 round 0", b.got[0])
	}
}

func TestStatsCountMessages(t *testing.T) {
	g := graph.Path(2)
	a := &pingProc{sendEdge: 0, rounds: 3}
	b := &pingProc{sendEdge: 0, rounds: 3}
	net, err := NewNetwork(g, []Proc{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 6 {
		t.Errorf("Messages = %d, want 6", stats.Messages)
	}
	if stats.EdgeMessages[0] != 6 {
		t.Errorf("EdgeMessages[0] = %d, want 6", stats.EdgeMessages[0])
	}
	if stats.MaxEdgeMessages() != 6 {
		t.Errorf("MaxEdgeMessages = %d, want 6", stats.MaxEdgeMessages())
	}
}

// doubleSender violates the one-message-per-edge rule.
type doubleSender struct{}

func (p *doubleSender) Step(ctx *Context) {
	ctx.Send(0, Msg{})
	ctx.Send(0, Msg{})
}

func TestSendTwicePanics(t *testing.T) {
	g := graph.Path(2)
	net, err := NewNetwork(g, []Proc{&doubleSender{}, &counterProc{left: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("double send did not panic")
		}
	}()
	_, _ = net.Run(2)
}

// foreignSender sends on an edge it is not incident to.
type foreignSender struct{}

func (p *foreignSender) Step(ctx *Context) { ctx.Send(1, Msg{}) }

func TestSendForeignEdgePanics(t *testing.T) {
	g := graph.Path(3) // edges 0:{0,1}, 1:{1,2}
	net, err := NewNetwork(g, []Proc{&foreignSender{}, &counterProc{left: 1}, &counterProc{left: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign-edge send did not panic")
		}
	}()
	_, _ = net.Run(2)
}

// echoProc replies to every incoming message on the same edge; used to test
// inbox ordering determinism.
type echoProc struct {
	id  int
	log []int
}

func (p *echoProc) Step(ctx *Context) {
	for _, in := range ctx.In {
		p.log = append(p.log, in.From)
	}
	if ctx.Round == 0 && p.id != 2 {
		ctx.SendTo(2, Msg{A: int64(p.id)})
	}
	if ctx.Round >= 1 {
		ctx.Halt()
	}
}

func TestInboxSortedBySender(t *testing.T) {
	g := graph.Star(5) // center 0... use node 2 as receiver instead
	// Build: nodes 0,1,3,4 all adjacent to 2.
	g = graph.New(5)
	for _, v := range []int{0, 1, 3, 4} {
		g.AddEdge(v, 2)
	}
	procs := make([]Proc, 5)
	eps := make([]*echoProc, 5)
	for v := range procs {
		eps[v] = &echoProc{id: v}
		procs[v] = eps[v]
	}
	net, err := NewNetwork(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(eps[2].log) != len(want) {
		t.Fatalf("receiver log = %v, want %v", eps[2].log, want)
	}
	for i := range want {
		if eps[2].log[i] != want[i] {
			t.Fatalf("receiver log = %v, want %v", eps[2].log, want)
		}
	}
}

func TestBroadcastUsesAllEdges(t *testing.T) {
	g := graph.Star(4)
	center := ProcFunc(func(ctx *Context) {
		if ctx.Round == 0 {
			ctx.Broadcast(Msg{Kind: 9})
		} else {
			ctx.Halt()
		}
	})
	leafGot := make([]int, 4)
	mkLeaf := func(v int) Proc {
		return ProcFunc(func(ctx *Context) {
			for _, in := range ctx.In {
				if in.Msg.Kind == 9 {
					leafGot[v]++
				}
			}
			if ctx.Round >= 1 {
				ctx.Halt()
			}
		})
	}
	net, err := NewNetwork(g, []Proc{center, mkLeaf(1), mkLeaf(2), mkLeaf(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if leafGot[v] != 1 {
			t.Errorf("leaf %d got %d broadcasts, want 1", v, leafGot[v])
		}
	}
}

func TestHaltedNodesDropMessages(t *testing.T) {
	g := graph.Path(2)
	sender := ProcFunc(func(ctx *Context) {
		if ctx.Round < 3 {
			ctx.Send(0, Msg{})
		} else {
			ctx.Halt()
		}
	})
	receiver := ProcFunc(func(ctx *Context) { ctx.Halt() })
	net, err := NewNetwork(g, []Proc{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 3 {
		t.Errorf("Messages = %d, want 3", stats.Messages)
	}
}

// deterministicProc emits a node-and-round-dependent value to all neighbors
// and folds incoming values into a running checksum.
type deterministicProc struct {
	id    int
	sum   int64
	limit int
}

func (p *deterministicProc) Step(ctx *Context) {
	for _, in := range ctx.In {
		p.sum = p.sum*31 + in.Msg.A + int64(in.From)
	}
	if ctx.Round >= p.limit {
		ctx.Halt()
		return
	}
	ctx.Broadcast(Msg{A: int64(p.id)*1000 + int64(ctx.Round)})
}

// TestParallelExecutionDeterministic checks that the goroutine worker pool
// (engaged for n >= 64) yields exactly the same results as repeated runs:
// inbox ordering is sorted, so node programs see identical inputs.
func TestParallelExecutionDeterministic(t *testing.T) {
	run := func() []int64 {
		g := graph.Torus(10, 10) // 100 nodes -> parallel path
		procs := make([]Proc, g.NumNodes())
		states := make([]*deterministicProc, g.NumNodes())
		for v := range procs {
			states[v] = &deterministicProc{id: v, limit: 12}
			procs[v] = states[v]
		}
		net, err := NewNetwork(g, procs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(64); err != nil {
			t.Fatal(err)
		}
		sums := make([]int64, len(states))
		for v, st := range states {
			sums[v] = st.sum
		}
		return sums
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d checksum differs across runs: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestRunForExactRounds(t *testing.T) {
	g := graph.Path(2)
	count := 0
	p := ProcFunc(func(ctx *Context) { count++ })
	net, err := NewNetwork(g, []Proc{p, ProcFunc(func(ctx *Context) {})})
	if err != nil {
		t.Fatal(err)
	}
	stats := net.RunFor(7)
	if stats.Rounds != 7 {
		t.Errorf("Rounds = %d, want 7", stats.Rounds)
	}
	if count != 7 {
		t.Errorf("Step called %d times, want 7", count)
	}
	// RunFor continues from the current round counter.
	net.RunFor(3)
	if net.Stats().Rounds != 10 {
		t.Errorf("Rounds = %d after second RunFor, want 10", net.Stats().Rounds)
	}
}

func TestRunUntilQuietGrace(t *testing.T) {
	// A proc that is silent for 3 rounds, then sends one message, then is
	// silent forever: grace 1 stops early, grace 5 sees the late message.
	g := graph.Path(2)
	mk := func() []Proc {
		return []Proc{
			ProcFunc(func(ctx *Context) {
				if ctx.Round == 3 {
					ctx.Send(0, Msg{A: 9})
				}
			}),
			ProcFunc(func(ctx *Context) {}),
		}
	}
	net, err := NewNetwork(g, mk())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.RunUntilQuiet(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Errorf("grace 1 saw %d messages, want 0 (stopped before round 3)", stats.Messages)
	}

	net, err = NewNetwork(g, mk())
	if err != nil {
		t.Fatal(err)
	}
	stats, err = net.RunUntilQuiet(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Errorf("grace 5 saw %d messages, want 1", stats.Messages)
	}
	if stats.ActiveRounds != 4 {
		t.Errorf("ActiveRounds = %d, want 4 (message sent in round 3)", stats.ActiveRounds)
	}
}

func TestSendToNoUnusedEdgePanics(t *testing.T) {
	g := graph.Path(2)
	p := ProcFunc(func(ctx *Context) {
		ctx.SendTo(1, Msg{})
		ctx.SendTo(1, Msg{}) // second send on the only edge
	})
	net, err := NewNetwork(g, []Proc{p, ProcFunc(func(ctx *Context) {})})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SendTo with no unused edge did not panic")
		}
	}()
	_, _ = net.Run(2)
}

// panickingStep is a node program with a bug: node 40 panics in round 1.
func panickingStep(ctx *Context) {
	if ctx.Node == 40 && ctx.Round == 1 {
		panic("step bug")
	}
	if ctx.Round == 3 {
		ctx.Halt()
	}
}

// TestStepPanicReraisedOnCaller runs a 64-node network on worker
// goroutines, where a panicking Step used to end the process out of any
// caller's reach. Run re-raises it on the calling goroutine instead, and
// the recovered value keeps the stack of the Step that panicked.
func TestStepPanicReraisedOnCaller(t *testing.T) {
	g := graph.Grid(8, 8)
	procs := make([]Proc, g.NumNodes())
	for v := range procs {
		procs[v] = ProcFunc(panickingStep)
	}
	net, err := NewNetwork(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	net.workers = 4 // the worker path, whatever GOMAXPROCS is
	var pe *obs.PanicError
	func() {
		defer func() {
			if v := recover(); v != nil {
				pe = obs.Recovered(v)
			}
		}()
		net.Run(10)
	}()
	if pe == nil || pe.Value != "step bug" || !strings.Contains(string(pe.Stack), "panickingStep") {
		t.Fatalf("recovered %+v, want the step bug with panickingStep on its stack", pe)
	}
}
