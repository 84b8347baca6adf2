package verify

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

func TestComponentLabelsMatchOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(50, 0.08, rng)
		keep := make([]bool, g.M())
		for i := range keep {
			keep[i] = rng.Float64() < 0.5
		}
		e := newEngine(t, g, int64(trial+5))
		lab, err := ComponentLabels(e, SubgraphFromEdges(e, keep))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := g.SubgraphComponents(keep)
		// Same label iff same offline component.
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if (lab.Label[u] == lab.Label[v]) != (want[u] == want[v]) {
					t.Fatalf("trial %d: nodes %d,%d labels (%d,%d), offline comps (%d,%d)",
						trial, u, v, lab.Label[u], lab.Label[v], want[u], want[v])
				}
			}
		}
	}
}

func TestSpanningTreeVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomizeWeights(graph.RandomConnected(40, 0.1, rng), 20, rng)

	// A real spanning tree (Kruskal's MST) must verify.
	keep := make([]bool, g.M())
	for _, i := range g.KruskalMST() {
		keep[i] = true
	}
	e := newEngine(t, g, 7)
	h := SubgraphFromEdges(e, keep)
	lab, err := ComponentLabels(e, h)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := SpanningTree(e, h, lab)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("true spanning tree rejected")
	}

	// Remove one tree edge: no longer spanning.
	for i := range keep {
		if keep[i] {
			keep[i] = false
			break
		}
	}
	e2 := newEngine(t, g, 8)
	h2 := SubgraphFromEdges(e2, keep)
	lab2, err := ComponentLabels(e2, h2)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := SpanningTree(e2, h2, lab2)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Fatal("broken tree accepted")
	}

	// A spanning connected subgraph with n edges (tree + extra) is not a tree.
	keep3 := make([]bool, g.M())
	for _, i := range g.KruskalMST() {
		keep3[i] = true
	}
	for i := range keep3 {
		if !keep3[i] {
			keep3[i] = true
			break
		}
	}
	e3 := newEngine(t, g, 9)
	h3 := SubgraphFromEdges(e3, keep3)
	lab3, err := ComponentLabels(e3, h3)
	if err != nil {
		t.Fatal(err)
	}
	ok3, err := SpanningTree(e3, h3, lab3)
	if err != nil {
		t.Fatal(err)
	}
	if ok3 {
		t.Fatal("tree-plus-one-edge accepted as spanning tree")
	}
}

func TestSTConnectivity(t *testing.T) {
	g := graph.Path(10)
	keep := make([]bool, g.M())
	for i := 0; i < 4; i++ {
		keep[i] = true // connects nodes 0..4
	}
	e := newEngine(t, g, 11)
	lab, err := ComponentLabels(e, SubgraphFromEdges(e, keep))
	if err != nil {
		t.Fatal(err)
	}
	if lab.Label[0] != lab.Label[4] {
		t.Fatal("0 and 4 should be H-connected")
	}
	if lab.Label[0] == lab.Label[7] {
		t.Fatal("0 and 7 should not be H-connected")
	}
}

func TestCutDisconnects(t *testing.T) {
	g := graph.Cycle(8)
	e := newEngine(t, g, 13)
	// One edge of a cycle is not a cut.
	cut1 := make([]bool, g.M())
	cut1[0] = true
	dis, err := CutDisconnects(e, SubgraphFromEdges(e, cut1))
	if err != nil {
		t.Fatal(err)
	}
	if dis {
		t.Fatal("single cycle edge reported as a cut")
	}
	// Two edges are.
	e2 := newEngine(t, g, 14)
	cut2 := make([]bool, g.M())
	cut2[0], cut2[3] = true, true
	dis2, err := CutDisconnects(e2, SubgraphFromEdges(e2, cut2))
	if err != nil {
		t.Fatal(err)
	}
	if !dis2 {
		t.Fatal("two cycle edges not reported as a cut")
	}
}

func TestBipartiteVerification(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{name: "even cycle", g: graph.Cycle(8), want: true},
		{name: "odd cycle", g: graph.Cycle(9), want: false},
		{name: "grid", g: graph.Grid(4, 5), want: true},
		{name: "triangle lollipop", g: graph.Lollipop(10, 3), want: false},
	}
	for ti, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := newEngine(t, tt.g, int64(20+ti))
			keep := make([]bool, tt.g.M())
			for i := range keep {
				keep[i] = true
			}
			h := SubgraphFromEdges(e, keep)
			lab, err := ComponentLabels(e, h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Bipartite(e, h, lab)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Bipartite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBipartiteOnRandomSubgraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(40, 0.1, rng)
		keep := make([]bool, g.M())
		for i := range keep {
			keep[i] = rng.Float64() < 0.6
		}
		e := newEngine(t, g, int64(40+trial))
		h := SubgraphFromEdges(e, keep)
		lab, err := ComponentLabels(e, h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Bipartite(e, h, lab)
		if err != nil {
			t.Fatal(err)
		}
		sub := subgraphOf(g, keep)
		_, want := sub.IsBipartite()
		if got != want {
			t.Fatalf("trial %d: Bipartite = %v, offline %v", trial, got, want)
		}
	}
}

// subgraphOf materializes the edge-subset subgraph for the offline oracle.
func subgraphOf(g *graph.Graph, keep []bool) *graph.Graph {
	var edges []graph.Edge
	for i, e := range g.Edges() {
		if keep[i] {
			edges = append(edges, e)
		}
	}
	return graph.MustNew(g.N(), edges)
}
