package congest

import (
	"testing"

	"shortcutpa/internal/graph"
)

// gossipProc builds the randomized-gossip protocol from
// TestDeterminismAcrossRuns on net: each node tracks the min ID heard and,
// for `rounds` rounds, sends it on a random port (per-node PRNG traffic).
func gossipProc(net *Network, rounds int64) (NodeProc, []int64) {
	minHeard := make([]int64, net.N())
	for v := range minHeard {
		minHeard[v] = net.ID(v)
	}
	return NodeProcFunc(func(ctx *Ctx, v int) bool {
		ctx.ForRecv(func(in Incoming) {
			minHeard[v] = min(minHeard[v], in.Msg.A)
		})
		if ctx.Round() < rounds {
			ctx.Send(ctx.Rand().Intn(ctx.Degree()), Message{A: minHeard[v]})
			return true
		}
		return false
	}), minHeard
}

// gossipRun executes the gossip protocol on a fresh network with the given
// worker count and returns the phase cost and final per-node state.
func gossipRun(t *testing.T, g *graph.Graph, seed int64, rounds int64, workers int) (Metrics, []int64) {
	t.Helper()
	net := NewNetworkWorkers(g, seed, workers)
	proc, minHeard := gossipProc(net, rounds)
	cost, err := net.RunNodes("gossip", proc, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return cost, minHeard
}

// TestParallelMatchesSequentialGossip checks bit-identical behaviour of the
// parallel engine on a protocol that exercises per-node randomness, message
// ordering, and the active/idle scheduler, across several worker counts
// (including counts that do not divide n, counts exceeding n, and a
// negative count, which must run the sequential engine).
func TestParallelMatchesSequentialGossip(t *testing.T) {
	g := graph.Grid(7, 9)
	for _, seed := range []int64{1, 7, 99} {
		wantCost, wantState := gossipRun(t, g, seed, 8, 1)
		for _, workers := range []int{-3, 2, 3, 4, 8, 1000} {
			cost, state := gossipRun(t, g, seed, 8, workers)
			if cost != wantCost {
				t.Fatalf("seed %d workers %d: cost %+v, sequential %+v", seed, workers, cost, wantCost)
			}
			for v := range state {
				if state[v] != wantState[v] {
					t.Fatalf("seed %d workers %d: node %d state %d, sequential %d",
						seed, workers, v, state[v], wantState[v])
				}
			}
		}
	}
}

// TestSetWorkersThreadsThroughRun checks the Network-level option: RunNodes
// on a network built with NewNetworkWorkers must match a sequential run.
func TestSetWorkersThreadsThroughRun(t *testing.T) {
	g := graph.Grid(6, 6)
	seqCost, seqState := gossipRun(t, g, 5, 6, 1)

	net := NewNetworkWorkers(g, 5, 4)
	proc, minHeard := gossipProc(net, 6)
	cost, err := net.RunNodes("gossip", proc, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.rs.workers; got != 4 {
		t.Fatalf("phase ran with %d workers on NewNetworkWorkers(4)", got)
	}
	if cost != seqCost {
		t.Fatalf("workers 4 RunNodes cost %+v, sequential %+v", cost, seqCost)
	}
	for v := range minHeard {
		if minHeard[v] != seqState[v] {
			t.Fatalf("node %d state %d, sequential %d", v, minHeard[v], seqState[v])
		}
	}
}

// TestParallelInboxOrderMatchesSequential pins down the delivery-order
// guarantee directly: every node records the exact (port, payload) sequence
// ForRecv yields from a broadcast storm, and the transcript must match the
// sequential engine's sender-index delivery order entry for entry.
func TestParallelInboxOrderMatchesSequential(t *testing.T) {
	g := graph.Torus(5, 5)
	run := func(workers int) [][]Incoming {
		net := NewNetworkWorkers(g, 3, workers)
		transcript := make([][]Incoming, g.N())
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			ctx.ForRecv(func(in Incoming) {
				transcript[v] = append(transcript[v], in)
			})
			if ctx.Round() < 3 {
				ctx.Broadcast(Message{A: ctx.ID(), B: ctx.Round()})
				return true
			}
			return false
		})
		if _, err := net.RunNodes("storm", proc, 100); err != nil {
			t.Fatal(err)
		}
		return transcript
	}
	want := run(1)
	for _, workers := range []int{2, 5, 13} {
		got := run(workers)
		for v := range want {
			if len(got[v]) != len(want[v]) {
				t.Fatalf("workers %d: node %d received %d messages, sequential %d",
					workers, v, len(got[v]), len(want[v]))
			}
			for i := range want[v] {
				if got[v][i] != want[v][i] {
					t.Fatalf("workers %d: node %d message %d = %+v, sequential %+v",
						workers, v, i, got[v][i], want[v][i])
				}
			}
		}
	}
}

// TestParallelIdleNodesAreNotStepped mirrors TestIdleNodesAreNotStepped on
// the parallel engine: the scheduler contract (step on round 0, on incoming
// messages, and after an active return) is engine-independent.
func TestParallelIdleNodesAreNotStepped(t *testing.T) {
	g := graph.Path(3)
	net := NewNetworkWorkers(g, 1, 3)
	steps := make([]int, g.N())
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		steps[v]++
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

// TestParallelDoubleSendPanics checks that a model violation inside a worker
// goroutine still surfaces as a panic on the caller's goroutine.
func TestParallelDoubleSendPanics(t *testing.T) {
	g := graph.Path(4)
	net := NewNetworkWorkers(g, 1, 2)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v == 2 {
			ctx.Send(0, Message{})
			ctx.Send(0, Message{})
		}
		return false
	})
	defer func() {
		if recover() == nil {
			t.Fatal("double send on the parallel engine did not panic")
		}
	}()
	_, _ = net.RunNodes("dup", proc, 10)
}

// benchProc builds a message-heavy aggregation protocol (every node
// broadcasts its running min-ID every round for `rounds` rounds) on a
// large graph, the workload the parallel engine is for. It is one shared
// NodeProc reading with ForRecv — the form every protocol package uses.
func benchProc(net *Network, rounds int64) NodeProc {
	minHeard := make([]int64, net.N())
	for v := range minHeard {
		minHeard[v] = net.ID(v)
	}
	return NodeProcFunc(func(ctx *Ctx, v int) bool {
		ctx.ForRecv(func(in Incoming) {
			minHeard[v] = min(minHeard[v], in.Msg.A)
		})
		if ctx.Round() < rounds {
			ctx.Broadcast(Message{A: minHeard[v]})
			return true
		}
		return false
	})
}

// BenchmarkEngine lives in engine_bench_test.go (graph-family × worker-count
// matrix over the same benchProc storm).
