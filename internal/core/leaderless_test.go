package core

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// newLeaderlessInfo builds partition info without electing leaders.
func newLeaderlessInfo(t *testing.T, g *graph.Graph, parts []int, seed int64, mode Mode) (*Engine, *part.Info) {
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
	return e, in
}

func TestSolveLeaderlessMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomConnected(40, 0.08, rng)
		parts := graph.RandomConnectedPartition(g, 4, rng)
		e, in := newLeaderlessInfo(t, g, parts, int64(trial+70), Randomized)
		vals := randomVals(g.N(), rng)
		res, err := e.SolveLeaderless(in, vals, congest.SumPair)
		if err != nil {
			t.Fatal(err)
		}
		want := offlineAggregate(in.Dense, vals, congest.SumPair)
		for v := 0; v < e.N; v++ {
			if res.Values[v] != want[in.Dense[v]] {
				t.Fatalf("trial %d node %d: got %+v want %+v", trial, v, res.Values[v], want[in.Dense[v]])
			}
		}
	}
}

func TestCoarsenToLeadersInstallsOneLeaderPerPart(t *testing.T) {
	g := graph.Grid(7, 7)
	rng := rand.New(rand.NewSource(62))
	parts := graph.RandomConnectedPartition(g, 6, rng)
	e, in := newLeaderlessInfo(t, g, parts, 63, Randomized)
	if err := e.CoarsenToLeaders(in); err != nil {
		t.Fatal(err)
	}
	nodeOf := make(map[int64]int, g.N())
	for v := 0; v < g.N(); v++ {
		nodeOf[e.Net.ID(v)] = v
	}
	leaderOf := make(map[int]int64)
	leaders := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		p := in.Dense[v]
		if id, ok := leaderOf[p]; ok && id != in.LeaderID[v] {
			t.Fatalf("part %d members disagree on leader", p)
		}
		leaderOf[p] = in.LeaderID[v]
		if in.IsLeader[v] {
			leaders[p]++
		}
		if u, ok := nodeOf[in.LeaderID[v]]; !ok || in.Dense[u] != p {
			t.Fatalf("part %d's leader is outside the part", p)
		}
	}
	for p, c := range leaders {
		if c != 1 {
			t.Fatalf("part %d has %d leader nodes", p, c)
		}
	}
}

func TestSolveLeaderlessWholeGraphPart(t *testing.T) {
	g := graph.Lollipop(40, 8)
	e, in := newLeaderlessInfo(t, g, graph.WholePartition(g.N()), 64, Randomized)
	vals := make([]congest.Val, g.N())
	for v := range vals {
		vals[v] = congest.Val{A: 1}
	}
	res, err := e.SolveLeaderless(in, vals, congest.SumPair)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if res.Values[v].A != int64(g.N()) {
			t.Fatalf("node %d counted %d nodes, want %d", v, res.Values[v].A, g.N())
		}
	}
}
