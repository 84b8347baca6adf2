package equivalence

import (
	"fmt"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// Degenerate-topology coverage for the flat edge-slot engine: layouts where
// CSR ranges are empty (isolated nodes, n<=1), where one node owns half of
// all slots (star hub), and where components never talk to each other
// (disconnected). Each topology runs a protocol that exercises Recv
// ordering, per-node randomness, and the wake scheduler, on the sequential
// engine and the parallel engine at several worker counts, and the two
// executions must be bit-identical — the same contract the main harness
// proves on the paper protocols.

// degenerateTopologies enumerates the shapes the flat layout must survive.
func degenerateTopologies() []struct {
	name string
	g    *graph.Graph
} {
	twoTrianglesAndLoner := graph.MustNew(7, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		// node 6 is isolated: degree 0, an empty slot range mid-array is
		// impossible (it sits at the end) but an empty CSR row is not.
	})
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.MustNew(0, nil)},
		{"n=1", graph.MustNew(1, nil)},
		{"n=2", graph.Path(2)},
		{"disconnected", twoTrianglesAndLoner},
		{"star", graph.Star(9)},
		{"path", graph.Path(7)},
	}
}

// TestDegenerateTopologiesAcrossEngines is the equivalence harness on the
// degenerate shapes: sequential vs workers 2, 3, and 16 (16 exceeds n for
// every instance here, exercising the worker clamp).
func TestDegenerateTopologiesAcrossEngines(t *testing.T) {
	for _, tc := range degenerateTopologies() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 9} {
				want := degenerateRun(t, tc.g, seed, 1)
				for _, w := range []int{2, 3, 16} {
					if got := degenerateRun(t, tc.g, seed, w); got != want {
						t.Errorf("seed %d workers %d diverged\nparallel:   %s\nsequential: %s",
							seed, w, clip(got), clip(want))
					}
				}
			}
		})
	}
}

// degenerateRun executes a gossip/echo protocol on g with the given engine
// parallelism and serializes the complete observable outcome: per-node
// final state, a transcript digest of every (round, port, payload)
// delivery, and the network cost accounting.
func degenerateRun(t *testing.T, g *graph.Graph, seed int64, workers int) string {
	t.Helper()
	net := congest.NewNetworkWorkers(g, seed, workers)
	n := g.N()
	// Shared-proc form: per-node state is the flat minHeard/digest arrays
	// (the production NodeProc idiom, exercised here on degenerate shapes).
	minHeard := make([]int64, n)
	digest := make([]int64, n)
	for v := 0; v < n; v++ {
		minHeard[v] = net.ID(v)
	}
	proc := congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
		ctx.ForRecv(func(in congest.Incoming) {
			minHeard[v] = min(minHeard[v], in.Msg.A)
			digest[v] = digest[v]*1000003 + int64(in.Port)*31 + in.Msg.A%997 + ctx.Round()
		})
		if ctx.Round() < 5 {
			if d := ctx.Degree(); d > 0 {
				p := ctx.Rand().Intn(d)
				ctx.Send(p, congest.Message{A: minHeard[v]})
				if ctx.Round()%2 == 0 {
					for q := 0; q < d; q++ {
						if ctx.CanSend(q) {
							ctx.Send(q, congest.Message{A: minHeard[v], B: 1})
						}
					}
				}
			}
			return true
		}
		return false
	})
	if _, err := net.RunNodes("degenerate", proc, 100); err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return fmt.Sprintf("state=%v digest=%v total=%+v phases=%+v", minHeard, digest, net.Total(), net.Phases())
}

// TestDegenerateComponentsStayIsolated pins the disconnected case down
// further: a flood from node 0 must reach exactly its own component — a
// mis-addressed edge slot would leak it across.
func TestDegenerateComponentsStayIsolated(t *testing.T) {
	g := degenerateTopologies()[3].g // twoTrianglesAndLoner
	keep := make([]bool, g.M())
	for i := range keep {
		keep[i] = true
	}
	comp, _ := g.SubgraphComponents(keep)
	for _, workers := range []int{1, 4} {
		net := congest.NewNetworkWorkers(g, 5, workers)
		reached := make([]bool, g.N())
		proc := congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
			heard := false
			ctx.ForRecv(func(congest.Incoming) { heard = true })
			if (ctx.Round() == 0 && v == 0) || heard {
				if !reached[v] {
					reached[v] = true
					ctx.Broadcast(congest.Message{Kind: 1})
				}
			}
			return false
		})
		if _, err := net.RunNodes("flood", proc, 100); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if want := comp[v] == comp[0]; reached[v] != want {
				t.Errorf("workers %d: node %d reached=%v, want %v", workers, v, reached[v], want)
			}
		}
	}
}
