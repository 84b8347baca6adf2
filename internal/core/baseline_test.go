package core

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

func TestSolveNaiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(60, 0.05, rng)
		parts := graph.RandomConnectedPartition(g, 5, rng)
		e, in := newTestEngine(t, g, parts, int64(trial+40), Randomized)
		vals := randomVals(g.N(), rng)
		res, err := e.SolveNaive(in, vals, congest.SumPair)
		if err != nil {
			t.Fatal(err)
		}
		want := offlineAggregate(in.Dense, vals, congest.SumPair)
		for v := 0; v < e.N; v++ {
			if res.Values[v] != want[in.Dense[v]] {
				t.Fatalf("trial %d node %d: got %+v, want %+v", trial, v, res.Values[v], want[in.Dense[v]])
			}
		}
	}
}

func TestSolveBlocksOnlyMatchesOracle(t *testing.T) {
	const rows, cols = 6, 24
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 43, Randomized)
	rng := rand.New(rand.NewSource(44))
	vals := randomVals(g.N(), rng)
	res, err := e.SolveBlocksOnly(in, vals, congest.MinPair)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineAggregate(in.Dense, vals, congest.MinPair)
	for v := 0; v < e.N; v++ {
		if res.Values[v] != want[in.Dense[v]] {
			t.Fatalf("node %d: got %+v, want %+v", v, res.Values[v], want[in.Dense[v]])
		}
	}
}

// figure2Setup builds the Figure 2a instance with the BFS tree rooted at
// the apex, a partition into rows, and elected row leaders.
func figure2Setup(t *testing.T, rows, cols int, seed int64) (*Engine, *part.Info, []congest.Val) {
	t.Helper()
	g := graph.GridStar(rows, cols)
	net := congest.NewNetwork(g, seed)
	e, err := NewEngineAt(net, Randomized, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := part.FromDense(net, graph.GridStarRowParts(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, e.MaxBudget()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return e, in, randomVals(g.N(), rng)
}

func TestBlockPushMatchesOracle(t *testing.T) {
	const rows, cols = 8, 30
	e, in, vals := figure2Setup(t, rows, cols, 45)
	inf, err := e.BuildInfraOpts(in, InfraOptions{SingletonSubParts: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.BlockPushAggregate(inf, vals, congest.SumPair)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineAggregate(in.Dense, vals, congest.SumPair)
	for v := 0; v < e.N; v++ {
		if res.Values[v] != want[in.Dense[v]] {
			t.Fatalf("node %d: got %+v, want %+v", v, res.Values[v], want[in.Dense[v]])
		}
	}
}

// figure2PerCallMessages measures per-aggregation messages (infrastructure
// prebuilt) for the sub-part algorithm vs the block-push strawman on the
// Figure 2a instance of the given height.
func figure2PerCallMessages(t *testing.T, rows, cols int, blockPush bool) int64 {
	t.Helper()
	e, in, vals := figure2Setup(t, rows, cols, int64(46+rows))
	var inf *Infra
	var err error
	if blockPush {
		inf, err = e.BuildInfraOpts(in, InfraOptions{SingletonSubParts: true})
	} else {
		inf, err = e.BuildInfra(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	e.Net.ResetMetrics()
	if blockPush {
		_, err = e.BlockPushAggregate(inf, vals, congest.SumPair)
	} else {
		_, err = e.SolveWithInfra(inf, vals, congest.SumPair)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e.Net.Total().Messages
}

func TestFigure2MessageScaling(t *testing.T) {
	// Section 3.1's separation is asymptotic in D: the block-push flow
	// pays Θ(nD) messages while the sub-part algorithm pays Θ̃(n) = Θ(m
	// polylog). The reproduction target is the SHAPE: per-node block-push
	// cost grows roughly linearly as D doubles; per-node sub-part cost is
	// nearly flat; so their ratio strictly widens. (Absolute crossover
	// needs D >> log n; EXPERIMENTS.md reports the sweep.)
	if testing.Short() {
		t.Skip("multi-thousand-node sweep")
	}
	const colsFactor = 8 // paper's D x (n-1)/D aspect: cols >> rows
	heights := []int{6, 12, 24}
	perNodeOurs := make([]float64, len(heights))
	perNodePush := make([]float64, len(heights))
	for k, rows := range heights {
		n := float64(rows*colsFactor*rows + 1)
		perNodeOurs[k] = float64(figure2PerCallMessages(t, rows, colsFactor*rows, false)) / n
		perNodePush[k] = float64(figure2PerCallMessages(t, rows, colsFactor*rows, true)) / n
	}
	for k := 1; k < len(heights); k++ {
		pushGrowth := perNodePush[k] / perNodePush[k-1]
		oursGrowth := perNodeOurs[k] / perNodeOurs[k-1]
		if pushGrowth < 1.5 {
			t.Fatalf("block-push per-node cost grew only %.2fx when D doubled (%v)", pushGrowth, perNodePush)
		}
		if oursGrowth > 1.3 {
			t.Fatalf("sub-part per-node cost grew %.2fx when D doubled — should be nearly flat (%v)", oursGrowth, perNodeOurs)
		}
		ratioPrev := perNodePush[k-1] / perNodeOurs[k-1]
		ratioCur := perNodePush[k] / perNodeOurs[k]
		if ratioCur <= ratioPrev {
			t.Fatalf("message gap did not widen with D: %.2f -> %.2f", ratioPrev, ratioCur)
		}
	}
}

func TestNaiveRoundSeparationOnDeepParts(t *testing.T) {
	// Row parts of the grid-star have diameter cols-1 >> graph diameter.
	// The naive intra-part algorithm must pay rounds ~ cols; the shortcut
	// algorithm stays near the (much smaller) graph diameter budget.
	const rows, cols = 8, 120
	g := graph.GridStar(rows, cols)
	parts := graph.GridStarRowParts(rows, cols)
	rng := rand.New(rand.NewSource(47))
	vals := randomVals(g.N(), rng)

	rounds := func(naive bool) int64 {
		e, in := newTestEngine(t, g, parts, 48, Randomized)
		e.Net.ResetMetrics()
		var err error
		if naive {
			_, err = e.SolveNaive(in, vals, congest.SumPair)
		} else {
			_, err = e.Solve(in, vals, congest.SumPair)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e.Net.Total().Rounds
	}
	naive := rounds(true)
	ours := rounds(false)
	if naive < int64(cols) {
		t.Fatalf("naive rounds %d below part diameter %d — measurement suspect", naive, cols-1)
	}
	_ = ours // ours includes construction; the benchmark reports the split
}
