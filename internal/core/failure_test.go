package core

import (
	"math/rand"
	"strings"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
	"shortcutpa/internal/subpart"
)

// Failure-injection and edge-case tests for the core engine: wrong inputs
// must fail loudly and precisely, never silently mis-aggregate.

func TestEngineOnDisconnectedGraphFails(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	net := congest.NewNetwork(g, 1)
	if _, err := NewEngine(net, Randomized); err == nil {
		t.Fatal("NewEngine accepted a disconnected graph")
	}
}

func TestSolveWrongValueCount(t *testing.T) {
	g := graph.Path(6)
	e, in := newTestEngine(t, g, graph.WholePartition(6), 2, Randomized)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SolveWithInfra(inf, make([]congest.Val, 3), congest.SumPair); err == nil {
		t.Fatal("SolveWithInfra accepted a short value slice")
	}
}

func TestSolveSingleNodeGraph(t *testing.T) {
	g := graph.MustNew(1, nil)
	e, in := newTestEngine(t, g, graph.WholePartition(1), 3, Randomized)
	res, err := e.Solve(in, []congest.Val{{A: 7, B: 9}}, congest.SumPair)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != (congest.Val{A: 7, B: 9}) {
		t.Fatalf("singleton aggregate %+v", res.Values[0])
	}
}

func TestSolveTwoNodeGraphBothModes(t *testing.T) {
	for _, mode := range []Mode{Randomized, Deterministic} {
		g := graph.Path(2)
		e, in := newTestEngine(t, g, graph.WholePartition(2), 4, mode)
		res, err := e.Solve(in, []congest.Val{{A: 1}, {A: 2}}, congest.SumPair)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for v := 0; v < 2; v++ {
			if res.Values[v].A != 3 {
				t.Fatalf("%v node %d: %+v", mode, v, res.Values[v])
			}
		}
	}
}

func TestBlockPushRejectsMultiBlockInstances(t *testing.T) {
	// On a non-apexed path with a deep part, singleton claims get truncated
	// by thresholds into several blocks; the strawman must refuse rather
	// than mis-aggregate.
	g := graph.Path(64)
	e, in := newTestEngine(t, g, graph.WholePartition(64), 5, Randomized)
	inf, err := e.BuildInfraOpts(in, InfraOptions{SingletonSubParts: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]congest.Val, 64)
	_, err = e.BlockPushAggregate(inf, vals, congest.SumPair)
	if err == nil {
		// A single block can legitimately happen if the budget grew large
		// enough to hold all 64 claims; in that case the result must be
		// correct instead.
		return
	}
	if !strings.Contains(err.Error(), "block") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestInfraReuseAcrossManyCallsStaysCorrect(t *testing.T) {
	// Hammer one infrastructure with many aggregations of mixed combiners:
	// router state must not leak between runs.
	const rows, cols = 6, 36
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 6, Randomized)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	combiners := []congest.Combine{congest.SumPair, congest.MinPair, congest.MaxPair}
	for round := 0; round < 9; round++ {
		f := combiners[round%len(combiners)]
		vals := randomVals(g.N(), rng)
		res, err := e.SolveWithInfra(inf, vals, f)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := offlineAggregate(in.Dense, vals, f)
		for v := 0; v < e.N; v++ {
			if res.Values[v] != want[in.Dense[v]] {
				t.Fatalf("round %d node %d: got %+v want %+v", round, v, res.Values[v], want[in.Dense[v]])
			}
		}
	}
}

func TestUncoveredPartsListIsDeterministic(t *testing.T) {
	const rows, cols = 6, 40
	g := graph.GridStar(rows, cols)
	run := func() []int64 {
		e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 8, Randomized)
		pb, err := part.RestrictedBFS(e.Net, in, e.D)
		if err != nil {
			t.Fatal(err)
		}
		inf := &Infra{In: in, PB: pb}
		return e.uncoveredParts(inf)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("expected uncovered parts on the grid-star instance")
	}
}

func TestVerifyPartsReportsFailureForTinyBudget(t *testing.T) {
	// With an absurdly small budget the verification must fail the deep
	// parts rather than pass them silently. Rows of 200 nodes cannot be
	// flooded within the ~38-round schedule a budget of 2 yields.
	const rows, cols = 6, 200
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 9, Randomized)
	pb, err := part.RestrictedBFS(e.Net, in, e.D)
	if err != nil {
		t.Fatal(err)
	}
	div, err := subpart.DeterministicDivision(e.Net, in, pb, e.D)
	if err != nil {
		t.Fatal(err)
	}
	inf := &Infra{In: in, PB: pb, Div: div, CastSeed: 9}
	inf.SC = emptyShortcut(e)
	inf.Budget = 2 // absurd: parts of 60 nodes cannot spread in 2 rounds
	active := e.uncoveredParts(inf)
	passed, err := e.verifyParts(inf, active)
	if err != nil {
		t.Fatal(err)
	}
	for id, ok := range passed {
		if ok {
			t.Fatalf("part %d passed verification with budget 2", id)
		}
	}
}

// emptyShortcut builds a claim-free shortcut for budget tests.
func emptyShortcut(e *Engine) *shortcut.Shortcut {
	return shortcut.New(e.Tree, e.N)
}
