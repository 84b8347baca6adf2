package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

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
	if inf.SC.Congestion() == 0 {
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

// solveAndDrop builds the infrastructure for a comb partition of a torus on
// net, runs one aggregation over it, and returns a channel that closes once
// the Engine is unreachable. The Engine, its Infra and the values are local
// to this call, so only the network could keep them alive.
func solveAndDrop(t *testing.T, net *congest.Network) <-chan struct{} {
	t.Helper()
	e, err := NewEngine(net, Randomized)
	if err != nil {
		t.Fatal(err)
	}
	in, err := part.FromDense(net, combParts(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SolveWithInfra(inf, randomVals(net.N(), rand.New(rand.NewSource(1))), congest.SumPair); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	runtime.AddCleanup(e, func(ch chan struct{}) { close(ch) }, done)
	return done
}

// TestDroppedEngineCollectable: once a caller drops its Engine, the network
// it ran on must not keep it (nor its router state, Infra or values)
// reachable. A warm network in the job cache outlives every Engine built on
// it, so a pin here would hold each job's protocol state until the next.
func TestDroppedEngineCollectable(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := congest.NewNetworkWorkers(graph.Torus(12, 12), 7, workers)
			awaitCleanup(t, solveAndDrop(t, net), "the dropped Engine is still reachable from its network")
			runtime.KeepAlive(net)
		})
	}
}

// solveAndDropInfra runs one aggregation over a fresh Infra on e, and
// returns channels that close once the Infra and the values are
// unreachable; both are local to this call.
func solveAndDropInfra(t *testing.T, e *Engine) (infraDone, valsDone <-chan struct{}) {
	t.Helper()
	in, err := part.FromDense(e.Net, combParts(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(e.Net, in, e.Net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	vals := randomVals(e.N, rand.New(rand.NewSource(1)))
	if _, err := e.SolveWithInfra(inf, vals, congest.SumPair); err != nil {
		t.Fatal(err)
	}
	a, b := make(chan struct{}), make(chan struct{})
	runtime.AddCleanup(inf, func(ch chan struct{}) { close(ch) }, a)
	runtime.AddCleanup(&vals[0], func(ch chan struct{}) { close(ch) }, b)
	return a, b
}

// TestRouterRunDropsInfra: the Engine's recycled router run keeps its
// arrays between runs, but not the last run's configuration, so an Infra
// and values the caller has dropped are collectable while the Engine
// lives on.
func TestRouterRunDropsInfra(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := congest.NewNetworkWorkers(graph.Torus(12, 12), 7, workers)
			e, err := NewEngine(net, Deterministic)
			if err != nil {
				t.Fatal(err)
			}
			infraDone, valsDone := solveAndDropInfra(t, e)
			awaitCleanup(t, infraDone, "the dropped Infra is still reachable from the Engine")
			awaitCleanup(t, valsDone, "the dropped values are still reachable from the Engine")
			if e.router.cfg != nil {
				t.Error("the router run keeps its last configuration")
			}
			runtime.KeepAlive(e)
		})
	}
}

// awaitCleanup collects garbage until done closes (a runtime.AddCleanup
// ran), and fails with msg if it has not within five seconds.
func awaitCleanup(t *testing.T, done <-chan struct{}, msg string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal(msg)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRouterOffersTokenOncePerPort: a node offers a part's token on a port
// at most once, even when its division lists the port twice. A division
// built under faults can do that: here one tree port per node is also
// marked as leaving the sub-part, so the flood meets it as a tree port and
// as an exit port.
func TestRouterOffersTokenOncePerPort(t *testing.T) {
	g := graph.Torus(12, 12)
	e, inf := fixedInfra(t, g, combParts(12, 12), 7, Deterministic, 1)
	div := inf.Div
	for v := range g.N() {
		for _, q := range div.ChildPorts[v] {
			div.SameSub[div.Row[v]+int32(q)] = false
		}
	}
	if _, err := e.SolveWithInfra(inf, randomVals(g.N(), rand.New(rand.NewSource(7))), congest.SumPair); err != nil {
		t.Fatal(err)
	}
	r := &e.router
	for v := range r.nodes {
		links := r.nodes[v].links
		for _, s := range r.nodes[v].parts {
			seen := map[int32]bool{}
			for k := s.head; k >= 0; k = links[k].next {
				if l := links[k].tagged; l&3 == linkOffered {
					if seen[l>>2] {
						t.Fatalf("node %d offered part %d's token twice on port %d", v, s.id, l>>2)
					}
					seen[l>>2] = true
				}
			}
		}
	}
}
