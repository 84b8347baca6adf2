package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// phaseCostInstance is one fixed pipeline whose core-layer phase log is
// pinned: a graph, its partition, the engine mode, and whether the
// aggregation is the Section 3.1 block push (engine rooted at the last node,
// the grid-star apex) instead of Algorithm 1.
type phaseCostInstance struct {
	name      string
	g         *graph.Graph
	parts     []int
	mode      Mode
	blockPush bool
	want      []congest.Phase
}

// corePhases runs inst's pipeline on net and returns every core/ phase of
// its log, in order. The router instances build the infrastructure, run one
// extra Algorithm 2 verification and one Algorithm 1 aggregation; the block
// push instance builds singleton-sub-part infrastructure and aggregates by
// block push.
func corePhases(tb testing.TB, net *congest.Network, inst *phaseCostInstance) []congest.Phase {
	tb.Helper()
	n := inst.g.N()
	var e *Engine
	var err error
	if inst.blockPush {
		e, err = NewEngineAt(net, inst.mode, n-1)
	} else {
		e, err = NewEngine(net, inst.mode)
	}
	if err != nil {
		tb.Fatal(err)
	}
	in, err := part.FromDense(net, inst.parts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		tb.Fatal(err)
	}
	vals := randomVals(n, rand.New(rand.NewSource(3)))
	if inst.blockPush {
		inf, err := e.BuildInfraOpts(in, InfraOptions{SingletonSubParts: true})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := e.BlockPushAggregate(inf, vals, congest.SumPair); err != nil {
			tb.Fatal(err)
		}
	} else {
		inf, err := e.BuildInfra(in)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := e.verifyParts(inf, nil); err != nil {
			tb.Fatal(err)
		}
		if _, err := e.SolveWithInfra(inf, vals, congest.SumPair); err != nil {
			tb.Fatal(err)
		}
	}
	var out []congest.Phase
	for _, ph := range net.Phases() {
		if strings.HasPrefix(ph.Name, "core/") {
			out = append(out, ph)
		}
	}
	return out
}

// identityParts puts every node in a part of its own.
func identityParts(n int) []int {
	parts := make([]int, n)
	for v := range parts {
		parts[v] = v
	}
	return parts
}

// segmentRow cuts row r of a rows-by-cols grid partition into parts of
// seg consecutive nodes, numbered after every part already in parts.
func segmentRow(parts []int, r, cols, seg int) []int {
	next := slices.Max(parts) + 1
	for c := 0; c < cols; c++ {
		parts[r*cols+c] = next + c/seg
	}
	return parts
}

func phase(name string, rounds, messages int64) congest.Phase {
	return congest.Phase{Name: name, Cost: congest.Metrics{Rounds: rounds, Messages: messages}}
}

// TestCorePhaseCostsPinned pins the name, rounds and messages of every
// core-layer phase on the BenchmarkRouter instances in both modes (the
// Algorithm 7/8 heavy-path sweep or the CoreFast claim, the Algorithm 2
// verifications, the Algorithm 1 aggregation) and on the S31 grid-star
// instance under block push. These phases keep nodes on round-number
// schedules, so a scheduling change that moved a node's last step by one
// round shows here with the phase named. Each instance runs at one and four
// engine workers, and on a network Reset after a full run.
func TestCorePhaseCostsPinned(t *testing.T) {
	pl := graph.PowerLaw(3000, 4, 2.5, rand.New(rand.NewSource(5)))
	gs := graph.GridStar(6, 48)
	insts := []phaseCostInstance{
		{
			name: "torus32/deterministic", g: graph.Torus(32, 32), parts: combParts(32, 32), mode: Deterministic,
			want: []congest.Phase{
				phase("core/heavypath", 4296, 91),
				phase("core/verify", 313, 4386),
				phase("core/verify", 313, 4386),
				phase("core/verify", 313, 4386),
				phase("core/solve", 173, 4386),
			},
		},
		{
			name: "torus32/randomized", g: graph.Torus(32, 32), parts: combParts(32, 32), mode: Randomized,
			want: []congest.Phase{
				phase("core/corefast", 15, 993),
				phase("core/verify", 355, 7195),
				phase("core/verify", 355, 7195),
				phase("core/verify", 355, 7195),
				phase("core/solve", 160, 7195),
			},
		},
		{
			name: "powerlaw3000/deterministic", g: pl, parts: graph.DeepPartition(pl, 6*pl.Eccentricity(0)), mode: Deterministic,
			want: []congest.Phase{
				phase("core/heavypath", 1795, 529),
				phase("core/verify", 144, 14245),
				phase("core/verify", 144, 14245),
				phase("core/verify", 144, 14245),
				phase("core/solve", 143, 14243),
			},
		},
		{
			name: "powerlaw3000/randomized", g: pl, parts: graph.DeepPartition(pl, 6*pl.Eccentricity(0)), mode: Randomized,
			want: []congest.Phase{
				phase("core/corefast", 37, 3993),
				phase("core/verify", 164, 29571),
				phase("core/verify", 164, 29571),
				phase("core/verify", 164, 29571),
				phase("core/solve", 125, 29569),
			},
		},
		{
			name: "gridstar6x48-rows/blockpush", g: gs, parts: graph.GridStarRowParts(6, 48), mode: Randomized, blockPush: true,
			want: []congest.Phase{
				phase("core/corefast", 7, 1008),
				phase("core/verify", 151, 6210),
				phase("core/verify", 151, 6210),
				phase("core/blockpush", 97, 2016),
				phase("core/covered-agg", 1, 0),
			},
		},
		{
			// Row 2 cut into 4-node segments: each is a covered part, so
			// core/covered-agg runs a convergecast and broadcast on its
			// part tree.
			name: "gridstar6x48-segments/blockpush", g: gs, parts: segmentRow(graph.GridStarRowParts(6, 48), 2, 48, 4), mode: Randomized, blockPush: true,
			want: []congest.Phase{
				phase("core/corefast", 7, 864),
				phase("core/verify", 151, 5440),
				phase("core/verify", 151, 5440),
				phase("core/blockpush", 95, 1728),
				phase("core/covered-agg", 7, 72),
			},
		},
		{
			// Every part a single, covered node: no block root sends at the
			// deadline, so only the schedule keeps the phase running to the
			// round after it.
			name: "gridstar6x48-singletons/blockpush", g: gs, parts: identityParts(gs.N()), mode: Randomized, blockPush: true,
			want: []congest.Phase{
				phase("core/verify", 125, 0),
				phase("core/blockpush", 81, 0),
				phase("core/covered-agg", 1, 0),
			},
		},
	}
	for i := range insts {
		inst := &insts[i]
		for _, leg := range []struct {
			label   string
			workers int
			reused  bool
		}{{"workers=1", 1, false}, {"workers=4", 4, false}, {"reused", 4, true}} {
			t.Run(inst.name+"/"+leg.label, func(t *testing.T) {
				net := congest.NewNetworkWorkers(inst.g, 11, leg.workers)
				if leg.reused {
					corePhases(t, net, inst)
					net.Reset()
				}
				got := corePhases(t, net, inst)
				if !slices.Equal(got, inst.want) {
					var sb strings.Builder
					for _, ph := range got {
						fmt.Fprintf(&sb, "\tphase(%q, %d, %d),\n", ph.Name, ph.Cost.Rounds, ph.Cost.Messages)
					}
					t.Errorf("core phase costs changed; got:\n%s", sb.String())
				}
			})
		}
	}
}
