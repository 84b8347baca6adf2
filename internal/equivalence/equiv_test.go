package equivalence

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/domset"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mincut"
	"shortcutpa/internal/mst"
	"shortcutpa/internal/part"
	"shortcutpa/internal/sssp"
	"shortcutpa/internal/verify"
)

// execution captures everything an engine run produces: a serialized
// protocol output plus the network's complete cost accounting.
type execution struct {
	Output string
	Total  congest.Metrics
	Phases []congest.Phase
}

// protocol is one table entry: a graph instance builder and a runner that
// executes the protocol on a prepared network and serializes its output.
type protocol struct {
	name  string
	graph func(seed int64) *graph.Graph
	run   func(net *congest.Network) (string, error)
}

// paFixture prepares the common PA fixture: an Engine in the given mode
// over a partition of parts several times deeper than the diameter (the
// regime Theorem 1.2 is about), with elected leaders — the same setup the
// bench harness uses.
func paFixture(net *congest.Network, mode core.Mode) (*core.Engine, *part.Info, error) {
	g := net.Graph()
	e, err := core.NewEngine(net, mode)
	if err != nil {
		return nil, nil, err
	}
	in, err := part.FromDense(net, graph.DeepPartition(g, 6*g.Eccentricity(0)))
	if err != nil {
		return nil, nil, err
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		return nil, nil, err
	}
	return e, in, nil
}

func grid(seed int64) *graph.Graph  { return graph.Grid(8, 8) }
func torus(seed int64) *graph.Graph { return graph.Torus(6, 6) }
func weighted(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomizeWeights(graph.RandomConnected(80, 3.0/80.0, rng), 100, rng)
}

// weightedSmall keeps the tree-packing protocols (mincut) affordable under
// `-race -short`; packing runs one full MST per tree.
func weightedSmall(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomizeWeights(graph.RandomConnected(48, 3.0/48.0, rng), 100, rng)
}

// powerlaw is the skewed fixture: heavy-tailed degrees (hubs), the regime
// the edge-balanced shard boundaries exist for. Equivalence on it proves
// skew-aware sharding preserves bit-identity where the shards are most
// lopsided.
func powerlaw(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomizeWeights(graph.PowerLaw(96, 4, 2.5, rng), 100, rng)
}

// The runners shared between the uniform and power-law table entries.

func runCorefastPA(net *congest.Network) (string, error) {
	e, in, err := paFixture(net, core.Randomized)
	if err != nil {
		return "", err
	}
	res, err := e.Solve(in, idVals(net), congest.MinPair)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v", res.Values), nil
}

func runMST(net *congest.Network) (string, error) {
	e, err := core.NewEngine(net, core.Randomized)
	if err != nil {
		return "", err
	}
	res, err := mst.Run(e, mst.Options{})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v w=%d phases=%d", res.InMST, res.Weight, res.Phases), nil
}

func runDomset(net *congest.Network) (string, error) {
	e, err := core.NewEngine(net, core.Randomized)
	if err != nil {
		return "", err
	}
	res, err := domset.KDominatingSet(e, 3)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v size=%d", res.IsCenter, res.Size), nil
}

func protocols() []protocol {
	return []protocol{
		{
			// Randomized CoreFast shortcut construction + PA solve
			// (Algorithm 4 / Theorem 1.2, randomized variant).
			name:  "corefast-pa",
			graph: grid,
			run:   runCorefastPA,
		},
		{
			// Deterministic heavy-path shortcut construction + PA solve
			// (Algorithms 7–8 / Theorem 1.2, deterministic variant).
			name:  "heavy-path-pa",
			graph: grid,
			run: func(net *congest.Network) (string, error) {
				e, in, err := paFixture(net, core.Deterministic)
				if err != nil {
					return "", err
				}
				res, err := e.Solve(in, idVals(net), congest.MaxPair)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v", res.Values), nil
			},
		},
		{
			// Leaderless PA via star joining (Algorithm 9 / Appendix B).
			name:  "leaderless-pa",
			graph: torus,
			run: func(net *congest.Network) (string, error) {
				g := net.Graph()
				e, err := core.NewEngine(net, core.Randomized)
				if err != nil {
					return "", err
				}
				in, err := part.FromDense(net, graph.DeepPartition(g, 4*g.Eccentricity(0)))
				if err != nil {
					return "", err
				}
				res, err := e.SolveLeaderless(in, idVals(net), congest.SumPair)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v", res.Values), nil
			},
		},
		{
			// Borůvka-over-PA MST (Corollary 1.3).
			name:  "mst",
			graph: weighted,
			run:   runMST,
		},
		{
			// Approximate SSSP over contracted light partitions
			// (Corollary 1.5), plus the exact Bellman-Ford baseline.
			name:  "sssp",
			graph: weighted,
			run: func(net *congest.Network) (string, error) {
				e, err := core.NewEngine(net, core.Randomized)
				if err != nil {
					return "", err
				}
				approx, err := sssp.Approx(e, 0, 0.5)
				if err != nil {
					return "", err
				}
				exact, err := sssp.BellmanFord(e, 0)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v meta=%d %v", approx.Dist, approx.MetaRounds, exact.Dist), nil
			},
		},
		{
			// Tree-packing approximate min-cut (Corollary 1.4).
			name:  "mincut",
			graph: weightedSmall,
			run: func(net *congest.Network) (string, error) {
				e, err := core.NewEngine(net, core.Randomized)
				if err != nil {
					return "", err
				}
				res, err := mincut.Approx(e, 3)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v w=%d tree=%d", res.Side, res.Weight, res.BestTree), nil
			},
		},
		{
			// Subgraph connectivity verification (Corollary A.1): component
			// labels of a spanning-tree-ish subgraph.
			name:  "verify",
			graph: grid,
			run: func(net *congest.Network) (string, error) {
				g := net.Graph()
				e, err := core.NewEngine(net, core.Randomized)
				if err != nil {
					return "", err
				}
				keep := make([]bool, g.M())
				for i := range keep {
					keep[i] = i%3 != 0 // drop a third of the edges
				}
				h := verify.SubgraphFromEdges(e, keep)
				lab, err := verify.ComponentLabels(e, h)
				if err != nil {
					return "", err
				}
				conn, err := verify.Connected(e, lab)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v conn=%v", lab.Label, conn), nil
			},
		},
		{
			// Sampled k-dominating set (Corollary A.3) — exercises per-node
			// PRNG streams directly, so any stream divergence fails here.
			name:  "domset",
			graph: torus,
			run:   runDomset,
		},
		// The power-law legs: same protocols, hub-heavy topology. These are
		// the instances where the step/scan shard boundaries are maximally
		// uneven in node count, so a sharding bug that respects uniform
		// families shows up here.
		{
			name:  "corefast-pa-powerlaw",
			graph: powerlaw,
			run:   runCorefastPA,
		},
		{
			name:  "mst-powerlaw",
			graph: powerlaw,
			run:   runMST,
		},
		{
			name:  "domset-powerlaw",
			graph: powerlaw,
			run:   runDomset,
		},
	}
}

// idVals is the canonical PA input: each node contributes (ID, index).
func idVals(net *congest.Network) []congest.Val {
	vals := make([]congest.Val, net.N())
	for v := range vals {
		vals[v] = congest.Val{A: net.ID(v), B: int64(v)}
	}
	return vals
}

// execute runs one protocol on a fresh network with the given worker count
// and captures output plus full cost accounting.
func execute(p protocol, seed int64, workers int) (*execution, error) {
	net := congest.NewNetwork(p.graph(seed), seed)
	net.SetWorkers(workers)
	out, err := p.run(net)
	if err != nil {
		return nil, err
	}
	return &execution{Output: out, Total: net.Total(), Phases: net.Phases()}, nil
}

// TestParallelEngineMatchesSequential is the cross-engine equivalence
// harness: every protocol above, under every seed, must produce the exact
// same output, total cost, and per-phase cost log on the parallel engine
// (workers 2, 4, and 8 — the acceptance settings of the edge-balanced
// sharding work) as on the sequential engine.
func TestParallelEngineMatchesSequential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		// Keep the full seed × protocol coverage but one parallel
		// configuration, halving the matrix for the per-push CI gate; the
		// nightly full run restores every worker count.
		workerCounts = []int{4}
	}
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range seeds {
				want, err := execute(p, seed, 1)
				if err != nil {
					t.Fatalf("seed %d sequential: %v", seed, err)
				}
				for _, w := range workerCounts {
					got, err := execute(p, seed, w)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
					if got.Output != want.Output {
						t.Errorf("seed %d workers %d: output diverged\nparallel:   %s\nsequential: %s",
							seed, w, clip(got.Output), clip(want.Output))
					}
					if got.Total != want.Total {
						t.Errorf("seed %d workers %d: total cost %+v, sequential %+v",
							seed, w, got.Total, want.Total)
					}
					if !reflect.DeepEqual(got.Phases, want.Phases) {
						t.Errorf("seed %d workers %d: per-phase cost log diverged", seed, w)
					}
				}
			}
		})
	}
}

// clip keeps failure messages readable for long serialized outputs.
func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}
