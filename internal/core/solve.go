package core

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
)

// Result is the outcome of a Part-Wise Aggregation: per Definition 1.1,
// every node of every part knows its part's aggregate value f(P_i).
type Result struct {
	// Values[v] = f(P_i) for v's part P_i.
	Values []congest.Val
	// Infra is the infrastructure the call used (reusable for further
	// aggregations over the same partition via SolveWithInfra).
	Infra *Infra
}

// Solve solves Part-Wise Aggregation (Theorem 1.2) for a partition with
// known leaders: it builds the per-partition infrastructure (coverage BFS,
// sub-part division, verified shortcut) and runs the Algorithm 1
// aggregation. vals[v] is node v's input value; f must be commutative and
// associative.
func (e *Engine) Solve(in *part.Info, vals []congest.Val, f congest.Combine) (*Result, error) {
	inf, err := e.BuildInfra(in)
	if err != nil {
		return nil, err
	}
	return e.SolveWithInfra(inf, vals, f)
}

// SolveWithInfra runs one aggregation over previously built (and verified)
// infrastructure. Repeated aggregations over the same partition — the
// common pattern in the paper's applications — pay the construction cost
// once and reuse it here.
func (e *Engine) SolveWithInfra(inf *Infra, vals []congest.Val, f congest.Combine) (*Result, error) {
	if len(vals) != e.N {
		return nil, fmt.Errorf("core: got %d values for %d nodes", len(vals), e.N)
	}
	cfg := inf.routerCfg(e, modeSolve, vals, f)
	// run is the Engine's recycled router state: read before the next run.
	run, err := runRouter(cfg, "core/solve", inf.runBudget(cfg))
	if err != nil {
		return nil, fmt.Errorf("core: solve: %w", err)
	}
	out := &Result{Values: make([]congest.Val, e.N), Infra: inf}
	for v := 0; v < e.N; v++ {
		val, ok := run.result(v, inf.In.LeaderID[v])
		if !ok {
			return nil, fmt.Errorf("core: node %d missed its part's result (infrastructure bug)", v)
		}
		out.Values[v] = val
	}
	return out, nil
}
