package subpart

import (
	"fmt"
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// starJoinFixture builds a partitioned network with leaders, an oracle
// aggregation service, and per-part chosen out-edges (minimum edge-index
// edge leaving the part, mirroring how Borůvka chooses MOEs).
func starJoinFixture(t *testing.T, g *graph.Graph, parts []int, seed int64) (*congest.Network, *part.Info, []int, *oracleAgg) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	in, err := part.FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	chosen := make([]int, g.N())
	for v := range chosen {
		chosen[v] = -1
	}
	// Pick, per part, the smallest-index edge leaving it.
	bestEdge := make(map[int]int)
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		for _, end := range []int{e.U, e.V} {
			p := in.Dense[end]
			other := e.U ^ e.V ^ end
			if in.Dense[other] == p {
				continue
			}
			if have, ok := bestEdge[p]; !ok || i < have {
				bestEdge[p] = i
			}
		}
	}
	for p, i := range bestEdge {
		e := g.Edge(i)
		end := e.U
		if in.Dense[end] != p {
			end = e.V
		}
		other := e.U ^ e.V ^ end
		chosen[end] = g.PortTo(end, other)
	}
	return net, in, chosen, &oracleAgg{Dense: in.Dense}
}

// checkStarJoining verifies Definition 6.1: roles are part-consistent,
// joiners' chosen edges land in receiver parts, and (for instances where
// every part has an out-edge) at least a constant fraction of parts merge.
func checkStarJoining(t *testing.T, g *graph.Graph, in *part.Info, chosen []int, res *StarJoinResult, wantFraction bool) {
	t.Helper()
	byPart := make(map[int]Role)
	for v := 0; v < g.N(); v++ {
		p := in.Dense[v]
		if have, ok := byPart[p]; ok {
			if have != res.Role[v] {
				t.Fatalf("part %d has inconsistent roles", p)
			}
		} else {
			byPart[p] = res.Role[v]
		}
	}
	joiners, receivers, total := 0, 0, 0
	for _, r := range byPart {
		total++
		switch r {
		case RoleJoiner:
			joiners++
		case RoleReceiver:
			receivers++
		}
	}
	for v := 0; v < g.N(); v++ {
		if res.Role[v] != RoleJoiner || chosen[v] < 0 {
			continue
		}
		target := g.Neighbor(v, chosen[v])
		if res.Role[target] != RoleReceiver {
			t.Fatalf("joiner %d's chosen edge points at part with role %d", v, res.Role[target])
		}
	}
	if wantFraction && total > 1 && joiners == 0 {
		t.Fatalf("no joiners among %d parts", total)
	}
}

func TestStarJoinDeterministicOnCycleOfParts(t *testing.T) {
	// A cycle graph with singleton parts: the super-graph is one directed
	// cycle — the pure Cole-Vishkin case.
	g := graph.Cycle(17)
	net, in, chosen, agg := starJoinFixture(t, g, graph.SingletonPartition(17), 1)
	res, err := StarJoin(net, in.LeaderID, chosen, agg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStarJoining(t, g, in, chosen, res, true)
}

func TestStarJoinDeterministicStarTopology(t *testing.T) {
	// Star graph, singleton parts: all leaves point at the hub (in-degree
	// >= 2 rule fires), so the hub receives and every leaf joins.
	g := graph.Star(9)
	net, in, chosen, agg := starJoinFixture(t, g, graph.SingletonPartition(9), 2)
	res, err := StarJoin(net, in.LeaderID, chosen, agg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStarJoining(t, g, in, chosen, res, true)
	if res.Role[0] != RoleReceiver {
		t.Fatal("hub should be a receiver")
	}
	joiners := 0
	for v := 1; v < 9; v++ {
		if res.Role[v] == RoleJoiner {
			joiners++
		}
	}
	if joiners != 8 {
		t.Fatalf("%d of 8 leaves joined", joiners)
	}
}

func TestStarJoinBothModesOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(50, 0.08, rng)
		k := 4 + rng.Intn(12)
		parts := graph.RandomConnectedPartition(g, k, rng)
		for _, det := range []bool{true, false} {
			net, in, chosen, agg := starJoinFixture(t, g, parts, int64(10*trial)+boolInt(det))
			res, err := StarJoin(net, in.LeaderID, chosen, agg, det, int64(trial))
			if err != nil {
				t.Fatalf("trial %d det=%v: %v", trial, det, err)
			}
			checkStarJoining(t, g, in, chosen, res, det)
		}
	}
}

func TestStarJoinConvergesWhenIterated(t *testing.T) {
	// Iterating star joinings + merges must coarsen singleton parts to one
	// part per component within O(log n) rounds — the engine behind
	// Algorithms 6 and 9 and Borůvka.
	for _, det := range []bool{true, false} {
		g := graph.Grid(6, 8)
		parts := graph.SingletonPartition(g.N())
		rounds := 0
		for ; rounds < 30; rounds++ {
			net, in, chosen, agg := starJoinFixture(t, g, parts, int64(100+rounds))
			if countParts(parts) == 1 {
				break
			}
			res, err := StarJoin(net, in.LeaderID, chosen, agg, det, int64(rounds))
			if err != nil {
				t.Fatal(err)
			}
			// The deterministic variant guarantees joiners every round; the
			// randomized one only in expectation (coin flips can all agree).
			checkStarJoining(t, g, in, chosen, res, det)
			// Engine-side merge of joiners into their targets (the callers'
			// job; here done with global knowledge for the test).
			parts = mergeJoiners(g, in, chosen, res, parts)
		}
		if countParts(parts) != 1 {
			t.Fatalf("det=%v: %d parts left after %d joinings", det, countParts(parts), rounds)
		}
		if rounds > 25 {
			t.Fatalf("det=%v: took %d joinings for 48 nodes", det, rounds)
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func countParts(parts []int) int {
	_, k := graph.NormalizeParts(parts)
	return k
}

func mergeJoiners(g *graph.Graph, in *part.Info, chosen []int, res *StarJoinResult, parts []int) []int {
	dsu := graph.NewDSU(g.N())
	for _, e := range g.Edges() {
		if parts[e.U] == parts[e.V] {
			dsu.Union(e.U, e.V)
		}
	}
	for v := 0; v < g.N(); v++ {
		if res.Role[v] == RoleJoiner && chosen[v] >= 0 {
			dsu.Union(v, g.Neighbor(v, chosen[v]))
		}
	}
	labels, _ := dsu.Labels()
	return labels
}

// oracleAgg is an engine-side instant aggregation service for unit tests of
// star joinings (it performs the partition-wide reduce without messaging).
// Production callers use PA (core.Engine's aggregator).
type oracleAgg struct {
	Dense []int
}

// Aggregate implements Agg.
func (o *oracleAgg) Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	if len(vals) != len(o.Dense) {
		return nil, fmt.Errorf("subpart: oracle agg size mismatch")
	}
	acc := make(map[int]congest.Val)
	for v, p := range o.Dense {
		if have, ok := acc[p]; ok {
			acc[p] = f(have, vals[v])
		} else {
			acc[p] = vals[v]
		}
	}
	out := make([]congest.Val, len(vals))
	for v, p := range o.Dense {
		out[v] = acc[p]
	}
	return out, nil
}
