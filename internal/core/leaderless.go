package core

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/subpart"
)

// leaderless.go implements Appendix B / Algorithm 9: converting the PA
// algorithm with known leaders into one without the assumption, at a
// logarithmic overhead. Groups start as singletons and coarsen by the
// Borůvka loop's star joinings (boruvka.go), each group picking an edge
// to another group inside the same part, until groups equal parts; then
// every part knows a leader and the main algorithm runs.

// Aggregator returns a PA-backed aggregation service over partition in
// (with known leaders), built with the given infrastructure ablations
// (zero options for the paper's construction): infrastructure is built on
// first use and reused, so a star joining's O(log* n) aggregations pay
// construction once.
func (e *Engine) Aggregator(in *part.Info, opts InfraOptions) subpart.Agg {
	return &paAgg{e: e, in: in, opts: opts}
}

type paAgg struct {
	e    *Engine
	in   *part.Info
	inf  *Infra
	opts InfraOptions
}

// Aggregate implements subpart.Agg.
func (a *paAgg) Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	if a.inf == nil {
		inf, err := a.e.BuildInfraOpts(a.in, a.opts)
		if err != nil {
			return nil, err
		}
		a.inf = inf
	}
	res, err := a.e.SolveWithInfra(a.inf, vals, f)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// SolveLeaderless solves PA when no part leaders are known (Lemma B.1):
// O(log n) star-joining coarsening levels, then the leader-based Solve.
// On return, in has leaders installed (so follow-up calls can use Solve).
func (e *Engine) SolveLeaderless(in *part.Info, vals []congest.Val, f congest.Combine) (*Result, error) {
	if err := e.CoarsenToLeaders(in); err != nil {
		return nil, err
	}
	return e.Solve(in, vals, f)
}

// CoarsenToLeaders elects part leaders via Algorithm 9's coarsening,
// installing them into in. Each group picks the minimum (endpoint ID,
// port) over its edges that stay inside the part but leave the group.
func (e *Engine) CoarsenToLeaders(in *part.Info) error {
	leader, _, err := e.Boruvka(Joining{
		Pick: func(v int, group []bool) (congest.Val, int) {
			for q, same := range in.SameRow(v) {
				if same && !group[q] {
					return congest.Val{A: e.Net.ID(v), B: int64(q)}, q
				}
			}
			return congest.Val{}, -1
		},
	})
	if err != nil {
		return fmt.Errorf("core: leaderless coarsening: %w", err)
	}
	in.SetLeaders(leader, nil)
	for v := 0; v < e.N; v++ {
		in.IsLeader[v] = leader[v] == e.Net.ID(v)
	}
	return nil
}
