package sssp

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// kindRelax is the relax round's message kind.
const kindRelax int32 = 140

// Result holds per-node distance estimates from the source.
type Result struct {
	Dist []int64 // estimate; upper bound on the true distance for Approx
	// MetaRounds counts contracted Bellman-Ford iterations (Approx only).
	MetaRounds int
}

// BellmanFord computes exact distances with a tree.Flood from src: nodes
// announce improved distances, receivers relax by edge weights. Rounds equal
// the maximum hop count of a shortest path (Θ(n) worst case — the
// round-suboptimal baseline); messages O(m) per improvement wave.
func BellmanFord(e *core.Engine, src int) (*Result, error) {
	dist := make([]int64, e.N)
	for v := range dist {
		dist[v] = congest.PosInf
	}
	dist[src] = 0
	g := e.Net.Graph()
	err := tree.Flood(e.Net, "sssp/bellman-ford", dist, func(v int) bool { return v == src }, nil,
		func(v, port int, a int64) int64 { return a + int64(g.EdgeWeight(v, port)) })
	if err != nil {
		return nil, err
	}
	return &Result{Dist: dist}, nil
}

// Approx computes upper-bound distance estimates via light-edge contraction.
// beta in (0, 1]: the light threshold is beta times the average edge weight.
func Approx(e *core.Engine, src int, beta float64) (*Result, error) {
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("sssp: beta %v outside (0,1]", beta)
	}
	n := e.N
	g := e.Net.Graph()

	// Global average weight by tree aggregation (nodes learn θ).
	vals := make([]congest.Val, n)
	for v := 0; v < n; v++ {
		var sw int64
		g.ForPorts(v, func(_, _, edge int) bool {
			sw += int64(g.Edge(edge).W)
			return true
		})
		vals[v] = congest.Val{A: sw, B: int64(g.Degree(v))}
	}
	agg, err := tree.Global(e.Net, e.Tree, vals, congest.SumPair)
	if err != nil {
		return nil, err
	}
	theta := int64(beta * float64(agg.A) / float64(max(agg.B, 1)))

	// Light-edge clusters: contract edges with weight <= θ.
	in, numParts := lightPartition(e, theta)
	if err := e.CoarsenToLeaders(in); err != nil {
		return nil, fmt.Errorf("sssp: clustering: %w", err)
	}
	inf, err := e.BuildInfra(in)
	if err != nil {
		return nil, err
	}

	// Intra-cluster traversal bounds. For clusters covered by the radius-D
	// BFS every node knows its hop depth to the cluster leader, so the path
	// u -> leader -> v costs at most (depth(u)+depth(v))·θ: the PA key
	// carries arrival(u)+depth(u)·θ and receivers add depth(v)·θ. Deeper
	// clusters fall back to the loose whole-cluster span (size-1)·θ.
	ones := make([]congest.Val, n)
	for v := range ones {
		ones[v] = congest.Val{A: 1}
	}
	sizes, err := e.SolveWithInfra(inf, ones, congest.SumPair)
	if err != nil {
		return nil, err
	}
	span := make([]int64, n)
	inDepth := make([]int64, n)
	for v := 0; v < n; v++ {
		span[v] = (sizes.Values[v].A - 1) * theta
		if inf.PB.Covered[v] {
			inDepth[v] = int64(inf.PB.Depth[v]) * theta
		}
	}

	// Contracted Bellman-Ford: PA-min spreads the best arrival through each
	// cluster; one relax round crosses edges; a global OR decides
	// termination.
	arrival := make([]int64, n)
	est := make([]int64, n)
	for v := range arrival {
		arrival[v] = congest.PosInf
	}
	arrival[src] = 0
	res := &Result{Dist: est}
	maxMeta := 2*numParts + 8
	for iter := 0; ; iter++ {
		if iter > maxMeta {
			return nil, fmt.Errorf("sssp: contracted Bellman-Ford exceeded %d meta-rounds", maxMeta)
		}
		av := make([]congest.Val, n)
		for v := 0; v < n; v++ {
			key := arrival[v]
			if key < congest.PosInf && inf.PB.Covered[v] {
				key += inDepth[v]
			}
			av[v] = congest.Val{A: key}
		}
		entry, err := e.SolveWithInfra(inf, av, congest.MinPair)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			est[v] = arrival[v]
			if entry.Values[v].A < congest.PosInf {
				cand := entry.Values[v].A + span[v]
				if inf.PB.Covered[v] {
					cand = entry.Values[v].A + inDepth[v]
				}
				if cand < est[v] {
					est[v] = cand
				}
			}
		}
		changed, err := relaxRound(e, in, est, arrival)
		if err != nil {
			return nil, err
		}
		res.MetaRounds = iter + 1
		flag, err := tree.Global(e.Net, e.Tree, changed, congest.OrPair)
		if err != nil {
			return nil, err
		}
		if flag.A == 0 {
			break
		}
	}
	return res, nil
}

// lightPartition builds the partition induced by edges of weight <= θ and
// counts its parts (engine-side, for the meta-round cap).
func lightPartition(e *core.Engine, theta int64) (*part.Info, int) {
	g := e.Net.Graph()
	n := e.N
	in := part.NewInfo(e.Net)
	keep := make([]bool, g.M())
	for i := 0; i < g.M(); i++ {
		keep[i] = int64(g.Edge(i).W) <= theta
	}
	_, numParts := g.SubgraphComponents(keep)
	for v := 0; v < n; v++ {
		same := in.SameRow(v)
		g.ForPorts(v, func(q, _, edge int) bool {
			same[q] = keep[edge]
			return true
		})
	}
	return in, numParts
}

// relaxRound: every reached node announces its estimate once across
// cluster-leaving edges; receivers relax by edge weights. Intra-cluster
// edges are deliberately excluded — the PA entry+span pass owns the inside
// of each cluster, which is what bounds the meta-round count by the
// cluster-hop diameter (relaxing inside clusters too would trickle one edge
// per meta-round and defeat the contraction). Reports per-node improvement
// flags (A = 1 where the node improved).
func relaxRound(e *core.Engine, in *part.Info, est, arrival []int64) ([]congest.Val, error) {
	g := e.Net.Graph()
	changed := make([]congest.Val, e.N)
	err := tree.Hop(e.Net, "sssp/relax",
		func(ctx *congest.Ctx, v int) {
			if est[v] == congest.PosInf {
				return // unreached: nothing to announce
			}
			for q, ok := range in.SameRow(v) {
				if !ok {
					ctx.Send(q, congest.Message{Kind: kindRelax, A: est[v]})
				}
			}
		},
		func(_ *congest.Ctx, v int, m congest.Incoming) {
			if nd := m.Msg.A + int64(g.EdgeWeight(v, m.Port)); nd < arrival[v] && nd < est[v] {
				arrival[v] = nd
				changed[v] = congest.Val{A: 1}
			}
		})
	if err != nil {
		return nil, err
	}
	return changed, nil
}
