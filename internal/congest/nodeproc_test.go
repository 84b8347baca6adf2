package congest

import (
	"fmt"
	"testing"

	"shortcutpa/internal/graph"
)

// nodeproc_test.go covers the phase driver (NodeProc / RunNodes):
// bit-identical gossip digests across engines and round modes, the
// degenerate shapes, the nil-proc guard, and the poisoned-buffer discipline
// in every engine configuration.

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
	ctx.ForRecv(func(_ int, in Incoming) {
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
func runGossip(t *testing.T, g *graph.Graph, seed int64, workers int, sparse bool) string {
	t.Helper()
	net := NewNetwork(g, seed)
	net.SetWorkers(workers)
	net.SetSparseRounds(sparse)
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
		t.Fatalf("workers=%d sparse=%v: %v", workers, sparse, err)
	}
	return fmt.Sprintf("state=%v digest=%v total=%+v phases=%+v",
		minHeard, digest, net.Total(), net.Phases())
}

// TestRunNodesMatchesRun is the phase driver's equivalence gate: on every
// topology, seed, worker count and round mode, RunNodes must be
// bit-identical — gossip digests, Rounds/Messages, per-phase log — to the
// reference run, the sequential engine with sparse rounds off.
func TestRunNodesMatchesRun(t *testing.T) {
	for _, tc := range gossipTopologies() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 8} {
				want := runGossip(t, tc.g, seed, 1, false)
				for _, workers := range []int{1, 2, 4} {
					for _, sparse := range []bool{true, false} {
						if got := runGossip(t, tc.g, seed, workers, sparse); got != want {
							t.Errorf("seed %d workers %d sparse %v: diverged from the reference run\ngot:  %s\nwant: %s",
								seed, workers, sparse, got, want)
						}
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
			ctx.ForRecv(func(int, Incoming) { t.Error("isolated node received a message") })
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
				if in, ok := ctx.RecvOn(0); ok {
					got = in.Msg.A
				}
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
// driver in both engines and both round modes: with the poison detector
// armed, the slot buffer retired at a flip reads poison in the next round,
// while a RecvOn value retained from the round before stays intact.
func TestRunNodesPoisonRetention(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	for _, workers := range []int{1, 4} {
		for _, sparse := range []bool{true, false} {
			t.Run(fmt.Sprintf("w%d/sparse=%v", workers, sparse), func(t *testing.T) {
				net := NewNetwork(graph.Path(2), 1)
				net.SetWorkers(workers)
				net.SetSparseRounds(sparse)
				var byOn Incoming
				checked := false
				proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
					if v == 0 {
						if ctx.Round() < 2 {
							ctx.Send(0, Message{A: 42 + ctx.Round()})
							return true
						}
						return false
					}
					switch ctx.Round() {
					case 1:
						var ok bool
						if byOn, ok = ctx.RecvOn(0); !ok || byOn.Msg.A != 42 {
							t.Errorf("round 1 RecvOn = %+v ok=%v, want A=42", byOn, ok)
						}
					case 2:
						checked = true
						if byOn.Msg.A != 42 {
							t.Errorf("retained RecvOn value changed: %+v, want A=42", byOn)
						}
						slot := ctx.st.net.portSlot[ctx.st.net.csr.RowStart[v]]
						if m := ctx.st.nextMsg[slot]; m.Kind != poisonKind {
							t.Errorf("retired slot reads %+v, want poison", m)
						}
					}
					return ctx.Round() < 2
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
