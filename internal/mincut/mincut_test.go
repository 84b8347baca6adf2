package mincut

import (
	"math/rand"
	"strings"
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
	if got := g.CutWeight(res.Side); got != res.Weight {
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

// TestApproxRunsOnCallersNetwork checks that min-cut's whole cost lives on
// the caller's network: a crash scheduled inside the first packing tree
// fails that tree, and a fault-free run logs only phases of the named
// protocol layers, so every round is attributable to one of them.
func TestApproxRunsOnCallersNetwork(t *testing.T) {
	g := graph.RandomizeWeights(graph.Grid(4, 5), 9, rand.New(rand.NewSource(3)))

	t.Run("crash-in-first-tree", func(t *testing.T) {
		e := newEngine(t, g, 5)
		// The scenario clock starts at the first round after engine
		// set-up (26 rounds here); the three packing trees and the
		// verification then run for about 11,000 rounds.
		if err := e.Net.SetScenario(&congest.Scenario{Crashes: []congest.NodeCrash{{Node: 7, Round: 5}}}); err != nil {
			t.Fatal(err)
		}
		_, err := Approx(e, 3)
		if err == nil || !strings.Contains(err.Error(), "mincut: packing round 0") {
			t.Fatalf("err = %v, want the first packing round to fail", err)
		}
	})

	t.Run("phases-by-layer", func(t *testing.T) {
		e := newEngine(t, g, 5)
		if _, err := Approx(e, 3); err != nil {
			t.Fatal(err)
		}
		for _, ph := range e.Net.Phases() {
			layer, _, _ := strings.Cut(ph.Name, "/")
			switch layer {
			case "tree", "part", "subpart", "shortcut", "core":
			default:
				t.Errorf("phase %q belongs to no protocol layer", ph.Name)
			}
		}
	})
}
