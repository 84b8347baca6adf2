package core

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
	"shortcutpa/internal/subpart"
)

// baseline.go implements the two prior-work strawmen the paper measures
// itself against in Sections 3.1-3.2:
//
//   - SolveNaive: aggregate along intra-part spanning trees only (no
//     shortcuts). Message-optimal but round complexity Θ(max part
//     diameter), which is Θ(n) in the worst case — the round-suboptimal
//     extreme.
//   - SolveBlocksOnly: the [GH16]/[HIZ16]-style round-optimal aggregation
//     in which every node (not only sub-part representatives) pushes its
//     value into the shortcut blocks. On the Figure 2a grid-star instance
//     this needs Ω(nD) messages, the paper's motivating lower-bound
//     example; the fix — sub-part divisions — is exactly what Solve adds.
//
// Both reuse the same router; they differ only in the infrastructure they
// build, which makes the comparison an ablation rather than an
// apples-to-oranges reimplementation.

// InfraOptions select infrastructure ablations.
type InfraOptions struct {
	// NoShortcut aggregates purely on intra-part spanning trees (built by
	// an uncapped intra-part BFS).
	NoShortcut bool
	// SingletonSubParts disables the sub-part division: every node of a
	// shortcut-using part becomes its own representative, so every node
	// injects into the blocks (the Section 3.1 strawman).
	SingletonSubParts bool
}

// BuildInfraOpts is BuildInfra with ablation options.
func (e *Engine) BuildInfraOpts(in *part.Info, opts InfraOptions) (*Infra, error) {
	if err := requireLeaders(in); err != nil {
		return nil, err
	}
	if opts.NoShortcut {
		pb, err := part.RestrictedBFS(e.Net, in, int64(e.N), e.MaxBudget())
		if err != nil {
			return nil, fmt.Errorf("core: naive part BFS: %w", err)
		}
		for v := 0; v < e.N; v++ {
			if !pb.Covered[v] {
				return nil, fmt.Errorf("core: node %d not covered by uncapped intra-part BFS", v)
			}
		}
		div, err := subpart.RandomDivision(e.Net, in, pb, int64(e.N), e.MaxBudget())
		if err != nil {
			return nil, err
		}
		inf := &Infra{
			In: in, PB: pb, Div: div,
			SC:       shortcut.New(e.Tree, e.N),
			CastSeed: e.Net.Seed(),
			// Budget must cover a full traversal of the deepest part tree.
			Budget: int64(e.N) + e.D + 16,
		}
		return inf, nil
	}
	if !opts.SingletonSubParts {
		return e.BuildInfra(in)
	}
	pb, err := part.RestrictedBFS(e.Net, in, e.D, e.MaxBudget())
	if err != nil {
		return nil, fmt.Errorf("core: coverage BFS: %w", err)
	}
	div := singletonDivision(e, in, pb)
	inf := &Infra{In: in, PB: pb, Div: div, CastSeed: e.Net.Seed()}
	if err := e.buildShortcutRandom(inf); err != nil {
		return nil, err
	}
	return inf, nil
}

// SolveNaive solves PA with intra-part trees only.
func (e *Engine) SolveNaive(in *part.Info, vals []congest.Val, f congest.Combine) (*Result, error) {
	inf, err := e.BuildInfraOpts(in, InfraOptions{NoShortcut: true})
	if err != nil {
		return nil, err
	}
	return e.SolveWithInfra(inf, vals, f)
}

// SolveBlocksOnly solves PA with shortcuts but without sub-part divisions
// (every node a representative) — Section 3.1's message-wasteful strawman.
func (e *Engine) SolveBlocksOnly(in *part.Info, vals []congest.Val, f congest.Combine) (*Result, error) {
	inf, err := e.BuildInfraOpts(in, InfraOptions{SingletonSubParts: true})
	if err != nil {
		return nil, err
	}
	return e.SolveWithInfra(inf, vals, f)
}

// singletonDivision puts every node of an uncovered part in its own
// sub-part (no communication needed: each node is its own representative).
// Covered parts keep their whole-part tree, as in BuildInfra.
func singletonDivision(e *Engine, in *part.Info, pb *part.BFS) *subpart.Division {
	n := e.N
	g := e.Net.Graph()
	csr := g.CSR()
	div := &subpart.Division{
		RepID:      make([]int64, n),
		IsRep:      make([]bool, n),
		ParentPort: make([]int, n),
		ChildPorts: make([][]int, n),
		WholePart:  make([]bool, n),
		Row:        csr.RowStart,
		SameSub:    make([]bool, len(csr.PortTo)),
		Depth:      make([]int, n),
	}
	for v := 0; v < n; v++ {
		if pb.Covered[v] {
			div.RepID[v] = in.LeaderID[v]
			div.IsRep[v] = in.IsLeader[v]
			div.ParentPort[v] = pb.ParentPort[v]
			div.ChildPorts[v] = append([]int(nil), pb.ChildPorts[v]...)
			div.WholePart[v] = true
			div.Depth[v] = pb.Depth[v]
			row := div.SameSubRow(v)
			same := in.SameRow(v)
			g.ForPorts(v, func(q, to, _ int) bool {
				row[q] = same[q] && pb.Covered[to]
				return true
			})
			continue
		}
		div.RepID[v] = e.Net.ID(v)
		div.IsRep[v] = true
		div.ParentPort[v] = -1
		div.Depth[v] = 0
	}
	return div
}
