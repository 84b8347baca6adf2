package mst

import (
	"fmt"

	"shortcutpa/internal/congest"
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
		Pick: func(v int, frag []bool) (congest.Val, int) {
			best, port := congest.Val{}, -1
			g.ForPorts(v, func(q, _, edge int) bool {
				val := congest.Val{A: int64(g.Edge(edge).W), B: int64(edge)}
				if !frag[q] && (port < 0 || congest.MinPair(val, best) == val) {
					best, port = val, q
				}
				return true
			})
			return best, port
		},
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
