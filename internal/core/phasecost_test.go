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

// layerPhases runs inst's pipeline on net and returns every phase of its log
// whose name starts with prefix, in order. The router instances build the infrastructure, run one
// extra Algorithm 2 verification and one Algorithm 1 aggregation; the block
// push instance builds singleton-sub-part infrastructure and aggregates by
// block push.
func layerPhases(tb testing.TB, net *congest.Network, inst *phaseCostInstance, prefix string) []congest.Phase {
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
		if strings.HasPrefix(ph.Name, prefix) {
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
	insts := corePhaseInstances()
	for i := range insts {
		checkPhaseCosts(t, &insts[i], "core/")
	}
}

// corePhaseInstances returns TestCorePhaseCostsPinned's seven instances,
// each with its pinned core/ phases as want.
func corePhaseInstances() []phaseCostInstance {
	pl := graph.PowerLaw(3000, 4, 2.5, rand.New(rand.NewSource(5)))
	gs := graph.GridStar(6, 48)
	return []phaseCostInstance{
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
}

// TestShortcutPhaseCostsPinned pins the shortcut-layer phases (the block
// set-up pass, Lemma 4.2's FIFO schedule on each block's down edges) of
// TestCorePhaseCostsPinned's instances. The equivalence goldens pin only
// their totals.
func TestShortcutPhaseCostsPinned(t *testing.T) {
	want := map[string][]congest.Phase{
		"torus32/deterministic":             {phase("shortcut/setup", 18, 80)},
		"torus32/randomized":                {phase("shortcut/setup", 32, 993)},
		"powerlaw3000/deterministic":        {phase("shortcut/setup", 46, 529)},
		"powerlaw3000/randomized":           {phase("shortcut/setup", 39, 3993)},
		"gridstar6x48-rows/blockpush":       {phase("shortcut/setup", 12, 1008)},
		"gridstar6x48-segments/blockpush":   {phase("shortcut/setup", 11, 864)},
		"gridstar6x48-singletons/blockpush": {}, // no uncovered part: no block
	}
	insts := corePhaseInstances()
	if len(insts) != len(want) {
		t.Fatalf("%d instances, %d pinned", len(insts), len(want))
	}
	for i := range insts {
		inst := &insts[i]
		w, ok := want[inst.name]
		if !ok {
			t.Fatalf("instance %s has no pinned shortcut/ phases", inst.name)
		}
		inst.want = w
		checkPhaseCosts(t, inst, "shortcut/")
	}
}

// checkPhaseCosts runs inst at one and four engine workers, and on a network
// Reset after a full run, and compares its prefix phases with inst.want.
func checkPhaseCosts(t *testing.T, inst *phaseCostInstance, prefix string) {
	for _, leg := range []struct {
		label   string
		workers int
		reused  bool
	}{{"workers=1", 1, false}, {"workers=4", 4, false}, {"reused", 4, true}} {
		t.Run(inst.name+"/"+leg.label, func(t *testing.T) {
			net := congest.NewNetworkWorkers(inst.g, 11, leg.workers)
			if leg.reused {
				layerPhases(t, net, inst, prefix)
				net.Reset()
			}
			got := layerPhases(t, net, inst, prefix)
			if !slices.Equal(got, inst.want) {
				var sb strings.Builder
				for _, ph := range got {
					fmt.Fprintf(&sb, "\tphase(%q, %d, %d),\n", ph.Name, ph.Cost.Rounds, ph.Cost.Messages)
				}
				t.Errorf("%s phase costs changed; got:\n%s", prefix, sb.String())
			}
		})
	}
}

// TestSubpartPhaseCostsPinned pins every subpart-layer phase of Algorithm 6
// (the deterministic sub-part division) on grid-star 6x12 with row parts.
// The division merges sub-parts in 3 iterations (one subpart/reroot each)
// before a fourth subpart/subinfo finds no candidate, so the log pins the
// merge loop past its first iteration: the subinfo announcements, the
// Cole-Vishkin exchanges of the star joinings, and the forest aggregations
// over grown sub-part trees.
func TestSubpartPhaseCostsPinned(t *testing.T) {
	inst := &phaseCostInstance{
		name: "gridstar6x12-rows/deterministic", g: graph.GridStar(6, 12), parts: graph.GridStarRowParts(6, 12), mode: Deterministic,
		want: []congest.Phase{
			phase("subpart/subinfo", 2, 276),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/point", 2, 12),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 22),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 18),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 18),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 18),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 18),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 18),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 12),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 3, 2),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/attach", 3, 10),
			phase("subpart/forest-agg", 17, 110),
			phase("subpart/reroot", 2, 5),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/subinfo", 2, 276),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/point", 2, 7),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 3, 8),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/attach", 3, 8),
			phase("subpart/forest-agg", 17, 120),
			phase("subpart/reroot", 2, 6),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/subinfo", 2, 276),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/point", 2, 3),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 3, 4),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/exchange", 1, 0),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/attach", 3, 4),
			phase("subpart/forest-agg", 17, 128),
			phase("subpart/reroot", 3, 4),
			phase("subpart/forest-agg", 17, 132),
			phase("subpart/subinfo", 2, 276),
			phase("subpart/depths", 9, 66),
			phase("subpart/exchange", 2, 132),
		},
	}
	merges := 0
	for _, ph := range inst.want {
		if ph.Name == "subpart/reroot" {
			merges++
		}
	}
	if merges < 3 {
		t.Fatalf("pinned log has %d merge iterations; the pin needs at least 3", merges)
	}
	checkPhaseCosts(t, inst, "subpart/")
}

// TestLowerLayerPhaseCostsPinned pins the tree/ and part/ phases of the
// torus32/deterministic and powerlaw3000/randomized router instances, and
// the subpart/ phases of both randomized instances: the set-up floods, the
// BFS tree, the heavy-path decomposition, the leader election, the
// radius-D part BFS and Algorithm 3's sampling wave, on which every
// core-layer phase builds. On the power-law graph most nodes self-elect
// (ln(n)/D is near 1), so the torus instance is the one whose wave grows
// trees over several rounds.
func TestLowerLayerPhaseCostsPinned(t *testing.T) {
	pl := graph.PowerLaw(3000, 4, 2.5, rand.New(rand.NewSource(5)))
	torus := func(name string, mode Mode, want ...congest.Phase) *phaseCostInstance {
		return &phaseCostInstance{name: name, g: graph.Torus(32, 32), parts: combParts(32, 32), mode: mode, want: want}
	}
	powerlaw := func(name string, want ...congest.Phase) *phaseCostInstance {
		return &phaseCostInstance{name: name, g: pl, parts: graph.DeepPartition(pl, 6*pl.Eccentricity(0)),
			mode: Randomized, want: want}
	}
	checkPhaseCosts(t, torus("torus32/deterministic/tree", Deterministic,
		phase("tree/elect", 34, 24704),
		phase("tree/bfs", 34, 4096),
		phase("tree/convergecast", 33, 1023),
		phase("tree/broadcast", 33, 1023),
		phase("tree/convergecast", 33, 1023),
		phase("tree/heavy-mark", 2, 868),
		phase("tree/heavy-level", 33, 1023),
		phase("tree/heavy-index", 16, 868),
		phase("tree/heavy-info", 16, 868),
	), "tree/")
	checkPhaseCosts(t, torus("torus32/deterministic/part", Deterministic,
		phase("part/elect", 61, 11807),
		phase("part/bfs-join", 34, 1236),
		phase("part/bfs-verdict", 67, 2014),
	), "part/")
	checkPhaseCosts(t, torus("torus32/randomized/subpart", Randomized,
		phase("subpart/wave", 10, 2048),
		phase("subpart/exchange", 2, 2048),
	), "subpart/")
	checkPhaseCosts(t, powerlaw("powerlaw3000/randomized/tree",
		phase("tree/elect", 10, 77509),
		phase("tree/bfs", 10, 17940),
		phase("tree/convergecast", 9, 2999),
		phase("tree/broadcast", 9, 2999),
	), "tree/")
	checkPhaseCosts(t, powerlaw("powerlaw3000/randomized/part",
		phase("part/elect", 28, 24829),
		phase("part/bfs-join", 10, 5923),
		phase("part/bfs-verdict", 19, 5760),
	), "part/")
	checkPhaseCosts(t, powerlaw("powerlaw3000/randomized/subpart",
		phase("subpart/wave", 2, 4342),
		phase("subpart/exchange", 2, 7148),
	), "subpart/")
}
