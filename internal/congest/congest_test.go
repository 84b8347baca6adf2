package congest

import (
	"errors"
	"testing"

	"shortcutpa/internal/graph"
)

// floodProc floods a token through the network: node 0 starts with the
// token; every node that has it broadcasts once.
type floodProc struct {
	has  []bool
	sent []bool
}

func newFlood(n int) *floodProc {
	return &floodProc{has: make([]bool, n), sent: make([]bool, n)}
}

func (f *floodProc) Step(ctx *Ctx, v int) bool {
	if ctx.Round() == 0 && v == 0 {
		f.has[v] = true
	}
	ctx.ForRecv(func(Incoming) { f.has[v] = true })
	if f.has[v] && !f.sent[v] {
		ctx.Broadcast(Message{Kind: 1})
		f.sent[v] = true
	}
	return false
}

func TestFloodReachesEveryoneInDiameterRounds(t *testing.T) {
	g := graph.Path(10)
	net := NewNetwork(g, 1)
	f := newFlood(g.N())
	cost, err := net.RunNodes("flood", f, 100)
	if err != nil {
		t.Fatal(err)
	}
	for v, has := range f.has {
		if !has {
			t.Fatalf("node %d never got the token", v)
		}
	}
	// Node 0 sends at round 0; token reaches node 9 at round 9; node 9
	// broadcasts at round 9; quiescence detected after round 10.
	if cost.Rounds < 10 || cost.Rounds > 12 {
		t.Fatalf("flood on P10 took %d rounds, want about 10", cost.Rounds)
	}
	// Each node broadcasts exactly once: sum of degrees = 2m messages.
	if want := int64(2 * g.M()); cost.Messages != want {
		t.Fatalf("flood sent %d messages, want %d", cost.Messages, want)
	}
}

func TestRunBudgetExceeded(t *testing.T) {
	g := graph.Path(4)
	net := NewNetwork(g, 1)
	// A proc that ping-pongs forever between nodes 0 and 1.
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if ctx.Round() == 0 && v == 0 {
			ctx.Send(0, Message{})
			return false
		}
		ctx.ForRecv(func(in Incoming) { ctx.Send(in.Port, Message{}) })
		return false
	})
	_, err := net.RunNodes("pingpong", proc, 50)
	var bee *BudgetExceededError
	if !errors.As(err, &bee) {
		t.Fatalf("err = %v, want BudgetExceededError", err)
	}
	if bee.Budget != 50 {
		t.Fatalf("budget = %d, want 50", bee.Budget)
	}
}

func TestDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	net := NewNetwork(g, 1)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v != 0 {
			return false
		}
		defer func() {
			if recover() == nil {
				t.Error("second send on a port did not panic")
			}
		}()
		ctx.Send(0, Message{})
		ctx.Send(0, Message{})
		return false
	})
	if _, err := net.RunNodes("dup", proc, 10); err != nil {
		t.Fatal(err)
	}
}

func TestCanSend(t *testing.T) {
	g := graph.Path(2)
	net := NewNetwork(g, 1)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v != 0 {
			return false
		}
		if !ctx.CanSend(0) {
			t.Error("CanSend false before sending")
		}
		ctx.Send(0, Message{})
		if ctx.CanSend(0) {
			t.Error("CanSend true after sending")
		}
		return false
	})
	if _, err := net.RunNodes("cansend", proc, 10); err != nil {
		t.Fatal(err)
	}
}

// TestIDsAreUniqueAndInvertible: distinct nodes get distinct IDs, so the
// node→ID map is a bijection onto its image and an ID names one node.
func TestIDsAreUniqueAndInvertible(t *testing.T) {
	g := graph.Grid(8, 8)
	net := NewNetwork(g, 42)
	seen := make(map[int64]bool, g.N())
	for v := 0; v < g.N(); v++ {
		id := net.ID(v)
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Metrics, []int64) {
		g := graph.Grid(5, 5)
		net := NewNetwork(g, 7)
		// Random gossip: each node sends its ID on a random port for 5 rounds;
		// nodes track the min ID heard.
		minHeard := make([]int64, g.N())
		for v := range minHeard {
			minHeard[v] = net.ID(v)
		}
		cost, err := net.RunNodes("gossip", NodeProcFunc(func(ctx *Ctx, v int) bool {
			ctx.ForRecv(func(in Incoming) {
				minHeard[v] = min(minHeard[v], in.Msg.A)
			})
			if ctx.Round() < 5 {
				ctx.Send(ctx.Rand().Intn(ctx.Degree()), Message{A: minHeard[v]})
				return true
			}
			return false
		}), 100)
		if err != nil {
			t.Fatal(err)
		}
		return cost, minHeard
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 {
		t.Fatalf("metrics differ across identical runs: %+v vs %+v", c1, c2)
	}
	for v := range m1 {
		if m1[v] != m2[v] {
			t.Fatalf("node %d state differs across identical runs", v)
		}
	}
}

func TestMetricsAccumulateAcrossPhases(t *testing.T) {
	g := graph.Path(6)
	net := NewNetwork(g, 3)
	for i := 0; i < 3; i++ {
		if _, err := net.RunNodes("flood", newFlood(g.N()), 100); err != nil {
			t.Fatal(err)
		}
	}
	phases := net.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	var sum Metrics
	for _, ph := range phases {
		sum = sum.Add(ph.Cost)
	}
	if sum != net.Total() {
		t.Fatalf("phase sum %+v != total %+v", sum, net.Total())
	}
	net.ResetMetrics()
	if net.Total() != (Metrics{}) || len(net.Phases()) != 0 {
		t.Fatal("ResetMetrics did not clear accounting")
	}
}

func TestIdleNodesAreNotStepped(t *testing.T) {
	// A node that returns false and never receives messages must be stepped
	// exactly once (round 0).
	g := graph.Path(3)
	net := NewNetwork(g, 1)
	steps := make([]int, g.N())
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		steps[v]++
		// Node 0 keeps itself active for 4 rounds but sends nothing.
		return v == 0 && ctx.Round() < 4
	})
	if _, err := net.RunNodes("idle", proc, 100); err != nil {
		t.Fatal(err)
	}
	if steps[1] != 1 || steps[2] != 1 {
		t.Fatalf("idle nodes stepped %v times, want once each", steps[1:])
	}
	if steps[0] != 5 {
		t.Fatalf("active node stepped %d times, want 5", steps[0])
	}
}
