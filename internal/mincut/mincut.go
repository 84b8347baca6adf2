package mincut

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// Result is an approximate minimum cut: one side's membership, the cut
// weight as verified by the distributed PA sum, and the packing round that
// produced it.
type Result struct {
	Side     []bool
	Weight   graph.Weight
	BestTree int // index of the packing round that produced the winner
}

// Approx packs `trees` MSTs and returns the best single-tree-edge cut.
// More trees improve the approximation (the paper uses O(log n)·poly(1/ε)).
func Approx(e *core.Engine, trees int) (*Result, error) {
	if trees < 1 {
		return nil, fmt.Errorf("mincut: need at least one tree, got %d", trees)
	}
	g := e.Net.Graph()
	n := e.N

	// Greedy tree packing: load(e) += 1/w(e) per use; each round's MST
	// minimizes (load, original weight, id). Loads are scaled to integers
	// to stay in the integral-weight model.
	const scale = 1 << 20
	load := make([]int64, g.M())
	bestWeight := graph.Weight(1) << 60
	var bestSide []bool
	bestTree := -1
	for t := 0; t < trees; t++ {
		// The packing MST runs on the caller's engine (Corollary 1.3's
		// Borůvka loop); a joiner's chosen edge enters the tree.
		inTree := make([]bool, g.M())
		_, _, err := e.Boruvka(core.Joining{
			Pick: core.LeastEdge(g, func(edge int) int64 { return load[edge]*1024 + int64(g.Edge(edge).W) }),
			Join: func(v, port int) { inTree[g.EdgeIndex(v, port)] = true },
		})
		if err != nil {
			return nil, fmt.Errorf("mincut: packing round %d: %w", t, err)
		}

		treeEdges := make([]int, 0, n-1)
		for i, in := range inTree {
			if in {
				treeEdges = append(treeEdges, i)
				load[i] += scale / int64(g.Edge(i).W)
			}
		}
		// Engine-side candidate scan: the cut of each single tree edge.
		for _, cutEdge := range treeEdges {
			side := treeSide(g, treeEdges, cutEdge)
			w := g.CutWeight(side)
			if w < bestWeight {
				bestWeight = w
				bestSide = side
				bestTree = t
			}
		}
	}

	// Distributed confirmation of the winner via PA.
	verified, err := verifyCut(e, bestSide)
	if err != nil {
		return nil, err
	}
	if verified != bestWeight {
		return nil, fmt.Errorf("mincut: distributed verification got %d, scan got %d", verified, bestWeight)
	}
	return &Result{Side: bestSide, Weight: verified, BestTree: bestTree}, nil
}

// treeSide returns the membership of the component of treeEdges \ cutEdge
// containing the cut edge's U endpoint.
func treeSide(g *graph.Graph, treeEdges []int, cutEdge int) []bool {
	dsu := graph.NewDSU(g.N())
	for _, i := range treeEdges {
		if i != cutEdge {
			e := g.Edge(i)
			dsu.Union(e.U, e.V)
		}
	}
	root := dsu.Find(g.Edge(cutEdge).U)
	side := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		side[v] = dsu.Find(v) == root
	}
	return side
}

// verifyCut computes the cut weight distributedly: the two sides form a
// partition (each side is connected: it is a subtree component), sides
// label themselves via Algorithm 9, and a PA sum per side totals the
// crossing weights. No phase marks the crossing ports: SamePart is filled
// engine-side from the global side array, outside the simulation, as for
// any PA instance (Definition 1.1 grants each node its same-part ports).
func verifyCut(e *core.Engine, side []bool) (graph.Weight, error) {
	g := e.Net.Graph()
	n := e.N
	in := part.NewInfo(e.Net)
	for v := 0; v < n; v++ {
		same := in.SameRow(v)
		sv := side[v]
		g.ForPorts(v, func(q, to, _ int) bool {
			same[q] = side[to] == sv
			return true
		})
	}
	if err := e.CoarsenToLeaders(in); err != nil {
		return 0, err
	}
	vals := make([]congest.Val, n)
	for v := 0; v < n; v++ {
		var w int64
		same := in.SameRow(v)
		g.ForPorts(v, func(q, _, edge int) bool {
			if !same[q] {
				w += int64(g.Edge(edge).W)
			}
			return true
		})
		vals[v] = congest.Val{A: w}
	}
	res, err := e.Solve(in, vals, congest.SumPair)
	if err != nil {
		return 0, err
	}
	// Every crossing edge is counted once by each side; both sides hold the
	// same total. Read it from node 0's side.
	return graph.Weight(res.Values[0].A), nil
}

// Ratio reports the achieved approximation ratio against an exact oracle
// weight (experiment helper).
func (r *Result) Ratio(exact graph.Weight) float64 {
	if exact == 0 {
		return 1
	}
	return float64(r.Weight) / float64(exact)
}
