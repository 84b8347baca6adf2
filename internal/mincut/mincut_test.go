package mincut

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
)

func newEngine(t *testing.T, g *graph.Graph, seed int64) *core.Engine {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	e, err := core.NewEngine(net, core.Randomized)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestApproxFindsObviousBottleneck(t *testing.T) {
	// Two dense blobs joined by one light edge: any tree packing isolates it.
	var edges []graph.Edge
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 10})
			edges = append(edges, graph.Edge{U: 6 + u, V: 6 + v, W: 10})
		}
	}
	edges = append(edges, graph.Edge{U: 2, V: 8, W: 3})
	g := graph.MustNew(12, edges)
	e := newEngine(t, g, 1)
	res, err := Approx(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 3 {
		t.Fatalf("found cut of weight %d, want 3", res.Weight)
	}
}

func TestApproxNearOptimalOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	worst := 1.0
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomizeWeights(graph.RandomConnected(24, 0.2, rng), 12, rng)
		e := newEngine(t, g, int64(trial+10))
		res, err := Approx(e, 8)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := g.StoerWagnerMinCut()
		ratio := res.Ratio(exact)
		if ratio < 1 {
			t.Fatalf("trial %d: cut %d below optimum %d — invalid", trial, res.Weight, exact)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	// Shape target: with 8 packed trees on these sizes the packing stays
	// within a factor 2 of optimal (empirically it is almost always exact).
	if worst > 2.0 {
		t.Fatalf("worst ratio %.2f exceeds 2x", worst)
	}
}

func TestApproxCutIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomizeWeights(graph.Grid(4, 5), 9, rng)
	e := newEngine(t, g, 5)
	res, err := Approx(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides non-empty.
	a, b := 0, 0
	for _, s := range res.Side {
		if s {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("degenerate cut: sides %d/%d", a, b)
	}
	// Reported weight equals the true weight of the reported side.
	side := make(map[int]bool)
	for v, s := range res.Side {
		if s {
			side[v] = true
		}
	}
	if got := g.CutWeight(side); got != res.Weight {
		t.Fatalf("reported %d, actual %d", res.Weight, got)
	}
}

func TestApproxRejectsZeroTrees(t *testing.T) {
	g := graph.Cycle(5)
	e := newEngine(t, g, 7)
	if _, err := Approx(e, 0); err == nil {
		t.Fatal("Approx accepted zero trees")
	}
}
