package mst

import (
	"fmt"

	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
)

// Options configure an MST run.
type Options struct {
	// Baseline disables shortcuts inside the per-phase aggregations.
	Baseline bool
}

// Result is the MST outcome. InMST is indexed by graph edge index; on a
// connected graph exactly n-1 entries are true, and the selected tree is
// the unique MST under (weight, edge-id) lexicographic comparison.
type Result struct {
	InMST  []bool
	Weight graph.Weight
	// Phases counts Borůvka phases. The first 2·log2(n)+9 join in the
	// engine's mode; any phase past them uses Algorithm 5's deterministic
	// star joining (core.Engine.Boruvka).
	Phases int
}

// Run computes the MST of the engine's network: each fragment picks its
// minimum outgoing edge under (weight, edge id), and a joiner's chosen
// edge enters the tree.
func Run(e *core.Engine, opts Options) (*Result, error) {
	g := e.Net.Graph()
	res := &Result{InMST: make([]bool, g.M())}
	_, phases, err := e.Boruvka(core.Joining{
		Pick: core.LeastEdge(g, func(edge int) int64 { return int64(g.Edge(edge).W) }),
		Join: func(v, port int) { res.InMST[g.EdgeIndex(v, port)] = true },
		Opts: core.InfraOptions{NoShortcut: opts.Baseline},
	})
	if err != nil {
		return nil, fmt.Errorf("mst: %w", err)
	}
	res.Phases = phases
	for i, in := range res.InMST {
		if in {
			res.Weight += g.Edge(i).W
		}
	}
	return res, nil
}
