package congest

import (
	"fmt"
	"testing"

	"shortcutpa/internal/graph"
)

// nodeproc_test.go covers the phase driver (NodeProc / RunNodes):
// bit-identical gossip digests across engines, the degenerate shapes, the
// nil-proc guard, and the poisoned-buffer discipline in every engine
// configuration.

// gossipTopologies are the shapes every engine configuration must agree on.
func gossipTopologies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(9)},
		{"star", graph.Star(8)},
		{"torus", graph.Torus(4, 4)},
		{"disconnected", graph.MustNew(5, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		})},
	}
}

// gossipStep is the common per-node round body: fold deliveries into
// minHeard and a transcript digest, then send on a random port (plus a
// broadcast on even rounds) while active. It exercises ForRecv, Rand,
// Send, CanSend, and the wake scheduler.
func gossipStep(ctx *Ctx, v int, minHeard, digest []int64) bool {
	ctx.ForRecv(func(in Incoming) {
		minHeard[v] = min(minHeard[v], in.Msg.A)
		digest[v] = digest[v]*1000003 + int64(in.Port)*31 + in.Msg.A%997 + ctx.Round()
	})
	if ctx.Round() < 6 {
		if d := ctx.Degree(); d > 0 {
			p := ctx.Rand().Intn(d)
			ctx.Send(p, Message{A: minHeard[v]})
			if ctx.Round()%2 == 0 {
				for q := 0; q < d; q++ {
					if ctx.CanSend(q) {
						ctx.Send(q, Message{A: minHeard[v], B: 1})
					}
				}
			}
		}
		return true
	}
	return false
}

// runGossip executes the gossip protocol on the given engine configuration
// and serializes the complete observable outcome.
func runGossip(t *testing.T, g *graph.Graph, seed int64, workers int) string {
	t.Helper()
	net := NewNetworkWorkers(g, seed, workers)
	n := g.N()
	minHeard := make([]int64, n)
	digest := make([]int64, n)
	for v := 0; v < n; v++ {
		minHeard[v] = net.ID(v)
	}
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		return gossipStep(ctx, v, minHeard, digest)
	})
	if _, err := net.RunNodes("gossip", proc, 100); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return fmt.Sprintf("state=%v digest=%v total=%+v phases=%+v",
		minHeard, digest, net.Total(), net.Phases())
}

// TestRunNodesMatchesRun is the phase driver's equivalence gate: on every
// topology, seed and worker count, RunNodes must be bit-identical — gossip
// digests, Rounds/Messages, per-phase log — to the reference run, the
// sequential engine.
func TestRunNodesMatchesRun(t *testing.T) {
	for _, tc := range gossipTopologies() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 8} {
				want := runGossip(t, tc.g, seed, 1)
				for _, workers := range []int{1, 2, 4} {
					if got := runGossip(t, tc.g, seed, workers); got != want {
						t.Errorf("seed %d workers %d: diverged from the reference run\ngot:  %s\nwant: %s",
							seed, workers, got, want)
					}
				}
			}
		})
	}
}

// TestRunNodesDegenerate covers the shapes where the node loop collapses:
// the empty graph (nil proc allowed), a single isolated node, and one edge.
func TestRunNodesDegenerate(t *testing.T) {
	t.Run("n=0", func(t *testing.T) {
		net := NewNetwork(graph.MustNew(0, nil), 1)
		cost, err := net.RunNodes("empty", nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Rounds != 1 || cost.Messages != 0 {
			t.Fatalf("empty run cost %+v, want 1 round, 0 messages", cost)
		}
	})
	t.Run("n=1", func(t *testing.T) {
		net := NewNetwork(graph.MustNew(1, nil), 1)
		ran := false
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			ran = true
			ctx.ForRecv(func(Incoming) { t.Error("isolated node received a message") })
			return false
		})
		if _, err := net.RunNodes("single", proc, 4); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("single node never stepped")
		}
	})
	t.Run("n=2", func(t *testing.T) {
		net := NewNetwork(graph.Path(2), 1)
		got := int64(-1)
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			if ctx.Round() == 0 && v == 0 {
				ctx.Send(0, Message{A: 9})
			}
			if v == 1 {
				ctx.ForRecv(func(in Incoming) { got = in.Msg.A })
			}
			return false
		})
		if _, err := net.RunNodes("pair", proc, 6); err != nil {
			t.Fatal(err)
		}
		if got != 9 {
			t.Fatalf("receiver got %d, want 9", got)
		}
	})
}

// TestRunNodesNilProcErrors pins the guard: a nil shared proc over a
// non-empty network is a caller bug reported as an error, not a panic three
// frames deep.
func TestRunNodesNilProcErrors(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	if _, err := net.RunNodes("nil", nil, 4); err == nil {
		t.Fatal("RunNodes(nil) on a non-empty network did not error")
	}
}

// TestRunNodesPoisonRetention pins the buffer discipline of the phase
// driver in both engines: with the poison detector armed, the send log and
// broadcast buffer retired at a flip read poison afterwards, while
// ForRecv values retained from earlier rounds stay intact. Node 0 sends in
// round 0, broadcasts in round 1 and sends in round 2, so node 1 keeps one
// value read from a slot and one read from a broadcast entry. Node 1 sends
// back in round 1, so the send log retired in round 3 held a message. With parking
// set the receiver parks itself and steps only because deliveries wake
// it; without, it also stays active, so it is scheduled through both
// bitsets at once. The subtest label keeps its first name, sparse=, for
// the parking axis.
func TestRunNodesPoisonRetention(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	for _, workers := range []int{1, 4} {
		for _, parking := range []bool{true, false} {
			t.Run(fmt.Sprintf("w%d/sparse=%v", workers, parking), func(t *testing.T) {
				net := NewNetworkWorkers(graph.Path(2), 1, workers)
				var kept, keptB Incoming
				checked := false
				proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
					r := ctx.Round()
					if v == 0 {
						switch r {
						case 0, 2:
							ctx.Send(0, Message{A: 42 + r})
						case 1:
							ctx.Broadcast(Message{A: 42 + r})
						}
						return r < 2
					}
					switch r {
					case 1:
						ctx.ForRecv(func(in Incoming) { kept = in })
						if kept.Msg.A != 42 {
							t.Errorf("round 1 ForRecv = %+v, want A=42", kept)
						}
						ctx.Send(0, Message{A: 7})
					case 2:
						ctx.ForRecv(func(in Incoming) { keptB = in })
						if keptB.Msg.A != 43 || keptB.Port != 0 {
							t.Errorf("round 2 ForRecv = %+v, want A=43 on port 0", keptB)
						}
					case 3:
						checked = true
						if kept.Msg.A != 42 || keptB.Msg.A != 43 {
							t.Errorf("retained ForRecv values changed: %+v, %+v, want A=42, A=43", kept, keptB)
						}
						// Node 0's only slot, the first of its row, took
						// node 1's round-1 Send; node 0's broadcast entry
						// is entry 0.
						slot := ctx.st.net.csr.RowStart[0]
						if m := retiredLogEntry(ctx.st, slot); m.Kind != poisonKind {
							t.Errorf("retired log entry of node 1's round-1 send reads %+v, want poison", m)
						}
						if m := ctx.st.nextBMsg[0]; m.Kind != poisonKind {
							t.Errorf("retired broadcast entry reads %+v, want poison", m)
						}
						if s := ctx.st.nextBStamp[0]; s != 0 {
							t.Errorf("retired broadcast stamp reads %d, want 0", s)
						}
					}
					return !parking && r < 3
				})
				if _, err := net.RunNodes("nodeproc-retain", proc, 10); err != nil {
					t.Fatal(err)
				}
				if !checked {
					t.Fatal("retention check never ran")
				}
			})
		}
	}
}
