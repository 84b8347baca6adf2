package core

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

func TestDeterministicSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(60)
		g := graph.RandomConnected(n, 2.5/float64(n), rng)
		parts := graph.RandomConnectedPartition(g, 1+rng.Intn(6), rng)
		e, in := newTestEngine(t, g, parts, int64(trial+90), Deterministic)
		vals := randomVals(g.N(), rng)
		checkSolve(t, e, in, vals, congest.SumPair)
	}
}

func TestDeterministicSolveGridStar(t *testing.T) {
	const rows, cols = 8, 40
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 91, Deterministic)
	rng := rand.New(rand.NewSource(92))
	res := checkSolve(t, e, in, randomVals(g.N(), rng), congest.MinPair)
	if res.Infra.SC.Congestion() == 0 {
		t.Fatal("deterministic construction claimed no edges for the row parts")
	}
}

func TestDeterministicDivisionQuality(t *testing.T) {
	const rows, cols = 8, 60
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 93, Deterministic)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.Div.Validate(e.Net, in, 8*int(e.D)); err != nil {
		t.Fatal(err)
	}
	// Uncovered row parts must have been split into >1 sub-part each of
	// size >= D (completeness) — so at most |P|/D sub-parts.
	counts := inf.Div.CountSubParts(in)
	for p, c := range counts {
		size := 0
		for _, dp := range in.Dense {
			if dp == p {
				size++
			}
		}
		if size <= int(e.D) {
			continue
		}
		if c > size/int(e.D)+1 {
			t.Fatalf("part %d (size %d) has %d sub-parts with D=%d, want <= %d",
				p, size, c, e.D, size/int(e.D)+1)
		}
	}
}

func TestDeterministicIsReproducible(t *testing.T) {
	run := func() (congest.Metrics, []congest.Val) {
		g := graph.GridStar(6, 30)
		e, in := newTestEngine(t, g, graph.GridStarRowParts(6, 30), 94, Deterministic)
		vals := make([]congest.Val, g.N())
		for v := range vals {
			vals[v] = congest.Val{A: int64(v)}
		}
		res, err := e.Solve(in, vals, congest.SumPair)
		if err != nil {
			t.Fatal(err)
		}
		return e.Net.Total(), res.Values
	}
	m1, v1 := run()
	m2, v2 := run()
	if m1 != m2 {
		t.Fatalf("deterministic mode metrics differ: %+v vs %+v", m1, m2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("deterministic mode results differ at node %d", i)
		}
	}
}

func TestDeterministicLeaderlessAndMST(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := graph.RandomConnected(50, 0.07, rng)
	parts := graph.RandomConnectedPartition(g, 5, rng)
	e, in := newLeaderlessInfo(t, g, parts, 96, Deterministic)
	vals := randomVals(g.N(), rng)
	res, err := e.SolveLeaderless(in, vals, congest.MinPair)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineAggregate(in.Dense, vals, congest.MinPair)
	for v := 0; v < e.N; v++ {
		if res.Values[v] != want[in.Dense[v]] {
			t.Fatalf("node %d: got %+v want %+v", v, res.Values[v], want[in.Dense[v]])
		}
	}
}
