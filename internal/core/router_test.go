package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// combParts splits a rows x cols torus into two interleaved combs: part 0 is
// row 0 plus the even columns down to row rows-2, part 1 is the rest. The
// teeth make both parts far deeper than the torus's D, so construction must
// build a shortcut and the router's block routing and beacon paths run.
func combParts(rows, cols int) []int {
	parts := make([]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r != 0 && (r == rows-1 || c%2 == 1) {
				parts[r*cols+c] = 1
			}
		}
	}
	return parts
}

// adoptionDigest hashes the broadcast trees of the engine's last router run:
// every node's adoption port for every part it was informed of, nodes in
// index order and parts in ID order. Which token reaches a node first is
// decided by the router's message order, so the digest moves with it.
func adoptionDigest(e *Engine) uint64 {
	h := fnv.New64a()
	for v := range e.router.nodes {
		for _, s := range e.router.nodes[v].parts {
			if s.informed {
				fmt.Fprintf(h, "%d:%d:%d;", v, s.id, s.via)
			}
		}
	}
	return h.Sum64()
}

// fixedInfra builds a network over g with the given engine workers, an
// engine, the partition with elected leaders, and its verified
// infrastructure.
func fixedInfra(tb testing.TB, g *graph.Graph, parts []int, seed int64, mode Mode, workers int) (*Engine, *Infra) {
	tb.Helper()
	net := congest.NewNetworkWorkers(g, seed, workers)
	e, err := NewEngine(net, mode)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := part.FromDense(net, parts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		tb.Fatal(err)
	}
	inf, err := e.BuildInfra(in)
	if err != nil {
		tb.Fatal(err)
	}
	return e, inf
}

// routerPhaseCosts builds the infrastructure for one fixed instance, runs
// one aggregation over it, and returns the rounds and messages of every
// core/verify and core/solve phase, in phase order, and the aggregation's
// adoptionDigest.
func routerPhaseCosts(t *testing.T, g *graph.Graph, parts []int, seed int64, mode Mode, workers int) ([]congest.Phase, uint64) {
	t.Helper()
	e, inf := fixedInfra(t, g, parts, seed, mode, workers)
	if inf.SC.TotalEdges() == 0 {
		t.Fatal("instance built no shortcut: the pin would not cover block routing")
	}
	if _, err := e.SolveWithInfra(inf, randomVals(g.N(), rand.New(rand.NewSource(seed))), congest.SumPair); err != nil {
		t.Fatal(err)
	}
	var out []congest.Phase
	for _, ph := range e.Net.Phases() {
		if ph.Name == "core/verify" || ph.Name == "core/solve" {
			out = append(out, ph)
		}
	}
	return out, adoptionDigest(e)
}

// TestRouterPhaseCostsPinned pins the rounds and messages of every router
// phase (Algorithm 2 verification and the Algorithm 1 aggregation), and the
// aggregation's broadcast trees, on three fixed instances at one and four
// engine workers. The router's message order decides both, so a change in
// its queue discipline or its part order fails here with the router named,
// not only as a whole-protocol golden mismatch elsewhere.
func TestRouterPhaseCostsPinned(t *testing.T) {
	pl := graph.PowerLaw(200, 4, 2.5, rand.New(rand.NewSource(200)))
	cases := []struct {
		name  string
		g     *graph.Graph
		parts []int
		seed  int64
		mode  Mode
		want  []congest.Phase
		tree  uint64
	}{
		{
			name: "torus12-comb/deterministic", g: graph.Torus(12, 12), parts: combParts(12, 12),
			seed: 7, mode: Deterministic,
			want: []congest.Phase{
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 171, Messages: 665}},
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 171, Messages: 665}},
				{Name: "core/solve", Cost: congest.Metrics{Rounds: 80, Messages: 665}},
			},
			tree: 0x49dddc347ffe27f5,
		},
		{
			name: "gridstar8x40-rows/randomized", g: graph.GridStar(8, 40), parts: graph.GridStarRowParts(8, 40),
			seed: 7, mode: Randomized,
			want: []congest.Phase{
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 231, Messages: 3402}},
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 231, Messages: 3402}},
				{Name: "core/solve", Cost: congest.Metrics{Rounds: 134, Messages: 3402}},
			},
			tree: 0xcd0b32d92d162c0a,
		},
		{
			// Hub-skewed: many parts meet at the hubs, so the order in which
			// a node seals its parts' aggregates shows in the trees.
			name: "powerlaw200-deep/randomized", g: pl, parts: graph.DeepPartition(pl, 4*pl.Eccentricity(0)),
			seed: 7, mode: Randomized,
			want: []congest.Phase{
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 139, Messages: 1246}},
				{Name: "core/verify", Cost: congest.Metrics{Rounds: 139, Messages: 1246}},
				{Name: "core/solve", Cost: congest.Metrics{Rounds: 52, Messages: 1244}},
			},
			tree: 0x58b5f03311d1fab3,
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got, tree := routerPhaseCosts(t, tc.g, tc.parts, tc.seed, tc.mode, workers)
				if !slices.Equal(got, tc.want) {
					t.Errorf("router phase costs changed:\n got  %#v\n want %#v", got, tc.want)
				}
				if tree != tc.tree {
					t.Errorf("router broadcast trees changed: adoption digest %#x, want %#x", tree, tc.tree)
				}
			})
		}
	}
}
