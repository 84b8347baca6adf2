package sssp

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// Message kinds.
const (
	kindRelax int32 = iota + 140
)

// Result holds per-node distance estimates from the source.
type Result struct {
	Dist []int64 // estimate; upper bound on the true distance for Approx
	// MetaRounds counts contracted Bellman-Ford iterations (Approx only).
	MetaRounds int
}

// BellmanFord computes exact distances: every node repeatedly announces its
// current distance; receivers relax by their incident edge weights. Rounds
// equal the maximum hop count of a shortest path (Θ(n) worst case — the
// round-suboptimal baseline); messages O(m) per improvement wave.
func BellmanFord(e *core.Engine, src int) (*Result, error) {
	n := e.N
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = congest.PosInf
	}
	bf := &bellmanFordProc{g: e.Net.Graph(), src: src, dist: dist}
	if _, err := e.Net.RunNodes("sssp/bellman-ford", bf, e.Net.RoundCap()); err != nil {
		return nil, err
	}
	return &Result{Dist: dist}, nil
}

// bellmanFordProc is the shared relax-and-announce state machine; per-node
// state is the flat dist array.
type bellmanFordProc struct {
	g    *graph.Graph
	src  int
	dist []int64
}

// Step implements congest.NodeProc.
func (p *bellmanFordProc) Step(ctx *congest.Ctx, v int) bool {
	improved := false
	if ctx.Round() == 0 && v == p.src {
		p.dist[v] = 0
		improved = true
	}
	ctx.ForRecv(func(m congest.Incoming) {
		if nd := m.Msg.A + int64(p.g.EdgeWeight(v, m.Port)); nd < p.dist[v] {
			p.dist[v] = nd
			improved = true
		}
	})
	if improved {
		ctx.Broadcast(congest.Message{Kind: kindRelax, A: p.dist[v]})
	}
	return false
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
	in := lightPartition(e, theta)
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
	_, numParts := graph.NormalizeParts(in.Dense)
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

// lightPartition builds the partition induced by edges of weight <= θ.
func lightPartition(e *core.Engine, theta int64) *part.Info {
	g := e.Net.Graph()
	n := e.N
	in := part.NewInfo(e.Net)
	keep := make([]bool, g.M())
	for i := 0; i < g.M(); i++ {
		keep[i] = int64(g.Edge(i).W) <= theta
	}
	dense, _ := g.SubgraphComponents(keep)
	copy(in.Dense, dense)
	for v := 0; v < n; v++ {
		same := in.SameRow(v)
		g.ForPorts(v, func(q, _, edge int) bool {
			same[q] = keep[edge]
			return true
		})
	}
	return in
}

// relaxRound: every reached node announces its estimate once across
// cluster-leaving edges; receivers relax by edge weights. Intra-cluster
// edges are deliberately excluded — the PA entry+span pass owns the inside
// of each cluster, which is what bounds the meta-round count by the
// cluster-hop diameter (relaxing inside clusters too would trickle one edge
// per meta-round and defeat the contraction). Reports per-node improvement
// flags (A = 1 where the node improved).
func relaxRound(e *core.Engine, in *part.Info, est, arrival []int64) ([]congest.Val, error) {
	n := e.N
	changed := make([]congest.Val, n)
	rp := &relaxProc{g: e.Net.Graph(), in: in, est: est, arrival: arrival, changed: changed}
	if _, err := e.Net.RunNodes("sssp/relax", rp, e.Net.RoundCap()); err != nil {
		return nil, err
	}
	return changed, nil
}

// relaxProc announces estimates across cluster-leaving edges once and
// relaxes receivers; per-node state lives in the est/arrival/changed arrays.
type relaxProc struct {
	g       *graph.Graph
	in      *part.Info
	est     []int64
	arrival []int64
	changed []congest.Val
}

// Step implements congest.NodeProc.
func (p *relaxProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && p.est[v] < congest.PosInf {
		for q, ok := range p.in.SameRow(v) {
			if !ok {
				ctx.Send(q, congest.Message{Kind: kindRelax, A: p.est[v]})
			}
		}
	}
	ctx.ForRecv(func(m congest.Incoming) {
		if nd := m.Msg.A + int64(p.g.EdgeWeight(v, m.Port)); nd < p.arrival[v] && nd < p.est[v] {
			p.arrival[v] = nd
			p.changed[v] = congest.Val{A: 1}
		}
	})
	return false
}
