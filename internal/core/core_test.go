package core

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// newTestEngine assembles a network + engine and a partition with leaders.
func newTestEngine(t *testing.T, g *graph.Graph, parts []int, seed int64, mode Mode) (*Engine, *part.Info) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	e, err := NewEngine(net, mode)
	if err != nil {
		t.Fatal(err)
	}
	in, err := part.FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	return e, in
}

// offlineAggregate computes the oracle per-part aggregates.
func offlineAggregate(parts []int, vals []congest.Val, f congest.Combine) map[int]congest.Val {
	out := make(map[int]congest.Val)
	seen := make(map[int]bool)
	for v, p := range parts {
		if !seen[p] {
			out[p] = vals[v]
			seen[p] = true
		} else {
			out[p] = f(out[p], vals[v])
		}
	}
	return out
}

// checkSolve runs Solve and compares every node's answer to the oracle.
func checkSolve(t *testing.T, e *Engine, in *part.Info, vals []congest.Val, f congest.Combine) *Result {
	t.Helper()
	res, err := e.Solve(in, vals, f)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineAggregate(in.Dense, vals, f)
	for v := 0; v < e.N; v++ {
		if res.Values[v] != want[in.Dense[v]] {
			t.Fatalf("node %d: got %+v, want %+v", v, res.Values[v], want[in.Dense[v]])
		}
	}
	return res
}

func randomVals(n int, rng *rand.Rand) []congest.Val {
	vals := make([]congest.Val, n)
	for v := range vals {
		vals[v] = congest.Val{A: int64(rng.Intn(1 << 20)), B: int64(rng.Intn(1 << 20))}
	}
	return vals
}

func TestSolveSinglePartWholeGraph(t *testing.T) {
	g := graph.Grid(8, 8)
	e, in := newTestEngine(t, g, graph.WholePartition(g.N()), 1, Randomized)
	rng := rand.New(rand.NewSource(2))
	checkSolve(t, e, in, randomVals(g.N(), rng), congest.SumPair)
}

func TestSolveSingletonParts(t *testing.T) {
	g := graph.Grid(5, 5)
	e, in := newTestEngine(t, g, graph.SingletonPartition(g.N()), 3, Randomized)
	rng := rand.New(rand.NewSource(4))
	checkSolve(t, e, in, randomVals(g.N(), rng), congest.MinPair)
}

func TestSolveStripesOnGrid(t *testing.T) {
	// Row parts on a grid: high-diameter parts that genuinely need the
	// shortcut machinery.
	const rows, cols = 6, 30
	g := graph.Grid(rows, cols)
	e, in := newTestEngine(t, g, graph.StripePartition(rows, cols), 5, Randomized)
	rng := rand.New(rand.NewSource(6))
	// On a plain grid a row part's diameter never exceeds the graph
	// diameter, so the parts are covered and no shortcut edges are needed —
	// the apexed GridStar test below is the one that exercises claims.
	checkSolve(t, e, in, randomVals(g.N(), rng), congest.SumPair)
}

func TestSolveGridStarBadExample(t *testing.T) {
	// The Figure 2 instance with row parts.
	const rows, cols = 8, 40
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 7, Randomized)
	rng := rand.New(rand.NewSource(8))
	res := checkSolve(t, e, in, randomVals(g.N(), rng), congest.MinPair)
	// Row parts (40 nodes) exceed the apexed graph's diameter (~10), so the
	// construction must actually have claimed shortcut edges for them.
	if res.Infra.SC.Congestion() == 0 {
		t.Fatal("grid-star row parts should have claimed shortcut edges")
	}
}

func TestSolveLongPathManyParts(t *testing.T) {
	// Contiguous runs on a path: every part has diameter ~ n/k >> D of the
	// part... and the graph diameter is huge; exercises deep trees.
	const n = 200
	g := graph.Path(n)
	e, in := newTestEngine(t, g, graph.InterleavedPathParts(n, 5), 9, Randomized)
	rng := rand.New(rand.NewSource(10))
	checkSolve(t, e, in, randomVals(g.N(), rng), congest.MaxPair)
}

func TestSolveRandomGraphsRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(80)
		g := graph.RandomConnected(n, 2.5/float64(n), rng)
		k := 1 + rng.Intn(8)
		parts := graph.RandomConnectedPartition(g, k, rng)
		e, in := newTestEngine(t, g, parts, int64(100+trial), Randomized)
		fs := []congest.Combine{congest.SumPair, congest.MinPair, congest.MaxPair, congest.OrPair}
		checkSolve(t, e, in, randomVals(g.N(), rng), fs[trial%len(fs)])
	}
}

func TestSolveWithInfraReuse(t *testing.T) {
	// Several aggregations over one partition reuse the infrastructure and
	// stay correct with different functions and values.
	g := graph.Grid(6, 20)
	e, in := newTestEngine(t, g, graph.StripePartition(6, 20), 13, Randomized)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 4; round++ {
		vals := randomVals(g.N(), rng)
		res, err := e.SolveWithInfra(inf, vals, congest.SumPair)
		if err != nil {
			t.Fatal(err)
		}
		want := offlineAggregate(in.Dense, vals, congest.SumPair)
		for v := 0; v < e.N; v++ {
			if res.Values[v] != want[in.Dense[v]] {
				t.Fatalf("round %d node %d: got %+v, want %+v", round, v, res.Values[v], want[in.Dense[v]])
			}
		}
	}
}

func TestSolveRequiresLeaders(t *testing.T) {
	g := graph.Path(6)
	net := congest.NewNetwork(g, 15)
	e, err := NewEngine(net, Randomized)
	if err != nil {
		t.Fatal(err)
	}
	in, err := part.FromDense(net, graph.WholePartition(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(in, make([]congest.Val, 6), congest.SumPair); err == nil {
		t.Fatal("Solve accepted a partition without leaders")
	}
}

func TestSolveMessageComplexityNearLinear(t *testing.T) {
	// Õ(m) message bound: on the grid-star instance the whole solve
	// (including construction) must stay within polylog(n) × m messages.
	const rows, cols = 10, 60
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 17, Randomized)
	e.Net.ResetMetrics() // exclude engine setup; count per-solve costs
	rng := rand.New(rand.NewSource(18))
	checkSolve(t, e, in, randomVals(g.N(), rng), congest.SumPair)
	msgs := e.Net.Total().Messages
	m := int64(g.M())
	logN := int64(1)
	for s := 1; s < g.N(); s *= 2 {
		logN++
	}
	if msgs > 40*m*logN {
		t.Fatalf("solve used %d messages; m=%d log n=%d — exceeds Õ(m) envelope", msgs, m, logN)
	}
}

func TestEngineModeString(t *testing.T) {
	if Randomized.String() != "randomized" || Deterministic.String() != "deterministic" {
		t.Fatal("Mode.String mismatch")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}
