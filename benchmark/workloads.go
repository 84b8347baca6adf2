package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"shortcutpa/internal/bench"
	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mst"
	"shortcutpa/internal/part"
)

// sizes fixes every workload's input size and how many distinct inputs one
// run measures. One run times each of its distinct inputs at least once and
// then cycles through them again until its time is up, so the exact counts
// (means over the distinct inputs) are the same in every pass at a seed,
// while the timings get as many samples as the time allows.
type sizes struct {
	mstSide, mstInputs   int
	paN, paInputs        int
	floodN, floodInputs  int
	waveSide, waveInputs int
	mix                  []bench.GraphSpec
	mixSeeds             int
}

// fullSizes are the reported sizes. Each was chosen so that one pass over
// the distinct inputs fits in about two thirds of a 20-second run on a
// 2-core box while keeping the property the workload exists for (see
// README.md).
var fullSizes = sizes{
	mstSide: 12, mstInputs: 192,
	paN: 3000, paInputs: 24,
	floodN: 100_000, floodInputs: 32,
	waveSide: 128, waveInputs: 16,
	mix:      []bench.GraphSpec{{Family: "torus", N: 256}, {Family: "powerlaw", N: 256}, {Family: "gridstar", N: 240}},
	mixSeeds: 12,
}

// toySizes run the same code in a fraction of a second, for the fast test.
var toySizes = sizes{
	mstSide: 4, mstInputs: 2,
	paN: 200, paInputs: 2,
	floodN: 500, floodInputs: 2,
	waveSide: 8, waveInputs: 2,
	mix:      []bench.GraphSpec{{Family: "torus", N: 16}, {Family: "powerlaw", N: 16}, {Family: "gridstar", N: 24}},
	mixSeeds: 1,
}

// mixProtocols are the job runner's protocols serve-mix drains: those that
// run no randomized star joining. The others (mst, mincut, verify, sssp,
// leaderless-pa) run coin-flip star joinings under a cap of 2·log2(n)+8
// levels, which a few inputs in a thousand exceed at these sizes, and a
// benchmark run must not fail; see README.md.
var mixProtocols = []string{"corefast-pa", "heavy-path-pa", "domset"}

// workloadNames lists the workloads in the order a full pass runs them.
var workloadNames = []string{"mst-torus", "pa-powerlaw", "flood-powerlaw", "wave-torus", "serve-mix"}

// inputSeed derives the seed of a run's i-th distinct input. Runs at
// different seeds share no input, so the spread across seeds is the spread
// a reader gets from any set of seeds.
func inputSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// instance is one generated input: the graph the program sees, the network
// built on it, and the partition of the PA workload.
type instance struct {
	g     *graph.Graph
	net   *congest.Network
	parts []int
}

// outcome is what one protocol run produced.
type outcome struct {
	d      int64              // the engine's D (BFS-tree height)
	digest string             // hash of the protocol's output
	counts map[string]float64 // workload-specific counts
	check  func() error       // the offline oracle; never inside a timed span
}

// batch is a workload of independent protocol runs, one per input.
type batch struct {
	name   string
	inputs int
	build  func(seed int64, tr *tracer) *instance // set-up: generators and NewNetwork
	run    func(in *instance, tr *tracer) (*outcome, error)
}

func batches(sz sizes) map[string]*batch {
	return map[string]*batch{
		"mst-torus": {
			name: "mst-torus", inputs: sz.mstInputs,
			build: func(seed int64, tr *tracer) *instance {
				return newInstance(tr, seed, func() (*graph.Graph, []int) {
					rng := rand.New(rand.NewSource(seed))
					return graph.RandomizeWeights(graph.Torus(sz.mstSide, sz.mstSide), 100, rng), nil
				})
			},
			run: runMST,
		},
		"pa-powerlaw": {
			name: "pa-powerlaw", inputs: sz.paInputs,
			build: func(seed int64, tr *tracer) *instance {
				return newInstance(tr, seed, func() (*graph.Graph, []int) {
					rng := rand.New(rand.NewSource(seed))
					g := graph.RandomizeWeights(graph.PowerLaw(sz.paN, 4, 2.5, rng), 100, rng)
					return g, graph.DeepPartition(g, 6*g.Eccentricity(0))
				})
			},
			run: runPA,
		},
		"flood-powerlaw": {
			name: "flood-powerlaw", inputs: sz.floodInputs,
			build: func(seed int64, tr *tracer) *instance {
				return newInstance(tr, seed, func() (*graph.Graph, []int) {
					return graph.PowerLaw(sz.floodN, 4, 2.5, rand.New(rand.NewSource(seed))), nil
				})
			},
			run: runFlood,
		},
		"wave-torus": {
			name: "wave-torus", inputs: sz.waveInputs,
			build: func(seed int64, tr *tracer) *instance {
				return newInstance(tr, seed, func() (*graph.Graph, []int) {
					return graph.Torus(sz.waveSide, sz.waveSide), nil
				})
			},
			run: runFlood,
		},
	}
}

// newInstance runs the input generators and builds the sequential network:
// everything a run does before its first simulated round.
func newInstance(tr *tracer, seed int64, gen func() (*graph.Graph, []int)) *instance {
	in := &instance{}
	_ = tr.span("graph.build", nil, func() error {
		in.g, in.parts = gen()
		return nil
	})
	_ = tr.span("congest.new_network", nil, func() error {
		in.net = congest.NewNetworkWorkers(in.g, seed, 1)
		return nil
	})
	return in
}

// newEngine is core.NewEngine: leader election, BFS tree, and the n/D
// convergecast and broadcast, all in the tree layer.
func newEngine(net *congest.Network, mode core.Mode, tr *tracer) (*core.Engine, error) {
	var e *core.Engine
	err := tr.span("tree.setup", net, func() (err error) {
		e, err = core.NewEngine(net, mode)
		return err
	})
	return e, err
}

// runMST runs the deterministic MST. Its Algorithm 5 star joinings merge a
// constant fraction of the fragments in every phase, which keeps it far
// below mst.Run's cap of 2·log2(n)+8 phases (5–7 against 24 on a 12×12
// torus); the randomized coin-flip joinings exceed that cap on a few inputs
// in a thousand.
func runMST(in *instance, tr *tracer) (*outcome, error) {
	e, err := newEngine(in.net, core.Deterministic, tr)
	if err != nil {
		return nil, err
	}
	var res *mst.Result
	if err := tr.span("mst.run", in.net, func() (err error) {
		res, err = mst.Run(e, mst.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	g := in.g
	return &outcome{
		d:      e.D,
		digest: digest(int64(res.Weight), res.InMST),
		counts: map[string]float64{"mst.phases": float64(res.Phases)},
		check: func() error {
			edges := 0
			var w graph.Weight
			for i, in := range res.InMST {
				if in {
					edges++
					w += g.Edge(i).W
				}
			}
			if want := g.MSTWeight(); res.Weight != want || w != want || edges != g.N()-1 {
				return fmt.Errorf("mst weight %d (edges sum to %d, %d edges), Kruskal says %d with %d edges",
					res.Weight, w, edges, want, g.N()-1)
			}
			return nil
		},
	}, nil
}

func runPA(in *instance, tr *tracer) (*outcome, error) {
	net := in.net
	e, err := newEngine(net, core.Randomized, tr)
	if err != nil {
		return nil, err
	}
	var info *part.Info
	if err := tr.span("part.setup", net, func() (err error) {
		if info, err = part.FromDense(net, in.parts); err != nil {
			return err
		}
		return part.ElectLeaders(net, info, int64(16*net.N()+4096))
	}); err != nil {
		return nil, err
	}
	var inf *core.Infra
	if err := tr.span("core.build_infra", net, func() (err error) {
		inf, err = e.BuildInfra(info)
		return err
	}); err != nil {
		return nil, err
	}
	vals := make([]congest.Val, net.N())
	for v := range vals {
		vals[v] = congest.Val{A: net.ID(v), B: int64(v)}
	}
	var res *core.Result
	if err := tr.span("core.solve", net, func() (err error) {
		res, err = e.SolveWithInfra(inf, vals, congest.MinPair)
		return err
	}); err != nil {
		return nil, err
	}
	return &outcome{
		d:      e.D,
		digest: digest(res.Values),
		counts: map[string]float64{"core.attempts": float64(inf.Attempts)},
		check: func() error {
			want := map[int]congest.Val{}
			for v, p := range info.Dense {
				if w, ok := want[p]; ok {
					want[p] = congest.MinPair(w, vals[v])
				} else {
					want[p] = vals[v]
				}
			}
			for v, p := range info.Dense {
				if res.Values[v] != want[p] {
					return fmt.Errorf("node %d got %v, its part's minimum is %v", v, res.Values[v], want[p])
				}
			}
			return nil
		},
	}, nil
}

// runFlood is the engine set-up alone: min-ID flood, BFS, convergecast and
// broadcast over the whole graph.
func runFlood(in *instance, tr *tracer) (*outcome, error) {
	e, err := newEngine(in.net, core.Randomized, tr)
	if err != nil {
		return nil, err
	}
	net, g := in.net, in.g
	return &outcome{
		d:      e.D,
		digest: digest(int64(e.Tree.Root), e.D, e.Tree.ParentPort),
		check: func() error {
			leader := minIDNode(net)
			if e.Tree.Root != leader {
				return fmt.Errorf("leader is node %d, the minimum ID is at node %d", e.Tree.Root, leader)
			}
			height := 1
			for v, d := range g.BFSFrom(leader) {
				if e.Tree.Depth[v] != d {
					return fmt.Errorf("node %d has tree depth %d, BFS distance %d", v, e.Tree.Depth[v], d)
				}
				height = max(height, d)
			}
			if e.D != int64(height) {
				return fmt.Errorf("engine D is %d, tree height is %d", e.D, height)
			}
			return nil
		},
	}, nil
}

// mixGraph rebuilds a serve-mix topology the way the job runner's family
// registry (internal/bench/jobs.go) builds it, so the benchmark can time its
// cold construction and give the oracle its n, m and D. Every job's reported
// N is checked against it, so the two cannot drift apart unnoticed.
func mixGraph(family string, n int, seed int64) (*graph.Graph, error) {
	squareSide := func(n int) int { return max(2, int(math.Round(math.Sqrt(float64(max(n, 4)))))) }
	switch family {
	case "torus":
		side := squareSide(n)
		return graph.Torus(side, side), nil
	case "powerlaw":
		rng := rand.New(rand.NewSource(seed))
		return graph.RandomizeWeights(graph.PowerLaw(max(n, 8), 4, 2.5, rng), 100, rng), nil
	case "gridstar":
		rows := max(2, squareSide(n/6))
		return graph.GridStar(rows, 6*rows), nil
	}
	return nil, fmt.Errorf("serve-mix has no builder for family %q", family)
}

// minIDNode is the node the leader election must pick.
func minIDNode(net *congest.Network) int {
	leader := 0
	for v := range net.N() {
		if net.ID(v) < net.ID(leader) {
			leader = v
		}
	}
	return leader
}

// engineD is the D core.NewEngine computes, from outside: the BFS height
// from the elected root.
func engineD(net *congest.Network) int64 {
	return int64(max(net.Graph().Eccentricity(minIDNode(net)), 1))
}

// digest hashes a protocol's output to 16 hex digits (FNV-64a over the
// values' little-endian words).
func digest(parts ...any) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for _, p := range parts {
		switch p := p.(type) {
		case int64:
			put(p)
		case []int:
			for _, x := range p {
				put(int64(x))
			}
		case []bool:
			for _, x := range p {
				if x {
					put(1)
				} else {
					put(0)
				}
			}
		case []congest.Val:
			for _, x := range p {
				put(x.A)
				put(x.B)
			}
		default:
			panic(fmt.Sprintf("digest: unsupported %T", p))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
