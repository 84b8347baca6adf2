package verify

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// Subgraph is a query subgraph H given as node-local knowledge: for each
// node, which incident ports' edges belong to H. The flags are flat over
// the graph's CSR offsets (the part.Info.SamePart shape): InH[Row[v]+q]
// reports whether the edge behind port q of node v belongs to H.
type Subgraph struct {
	Row []int32 // CSR row offsets (len n+1), aliasing the graph's CSR.RowStart
	InH []bool  // flat 2m
}

// PortRow returns node v's per-port window of the flat InH array.
func (s *Subgraph) PortRow(v int) []bool { return s.InH[s.Row[v]:s.Row[v+1]] }

// SubgraphFromEdges builds the node-local view from a global edge subset
// (engine-side instance construction).
func SubgraphFromEdges(e *core.Engine, keep []bool) *Subgraph {
	g := e.Net.Graph()
	n := g.N()
	csr := g.CSR()
	s := &Subgraph{Row: csr.RowStart, InH: make([]bool, len(csr.PortTo))}
	for v := 0; v < n; v++ {
		inH := s.PortRow(v)
		g.ForPorts(v, func(q, _, edge int) bool {
			inH[q] = keep[edge]
			return true
		})
	}
	return s
}

// Labeling is the outcome of component labeling: Label[v] identifies v's
// H-component (labels are leader IDs, unique per component), and Info is
// the underlying partition with installed leaders, reusable for further
// PA calls over the components.
type Labeling struct {
	Label []int64
	Info  *part.Info
}

// ComponentLabels labels the connected components of H (Thurimella's
// algorithm as a PA instance).
func ComponentLabels(e *core.Engine, h *Subgraph) (*Labeling, error) {
	in := part.NewInfo(e.Net)
	copy(in.SamePart, h.InH) // H-membership IS the partition's port view
	if err := e.CoarsenToLeaders(in); err != nil {
		return nil, fmt.Errorf("verify: labeling: %w", err)
	}
	return &Labeling{Label: in.LeaderID, Info: in}, nil
}

// Connected reports whether H spans a single component covering all nodes:
// the global (min label, max label) agree.
func Connected(e *core.Engine, lab *Labeling) (bool, error) {
	vals := make([]congest.Val, e.N)
	for v := 0; v < e.N; v++ {
		vals[v] = congest.Val{A: lab.Label[v], B: -lab.Label[v]}
	}
	got, err := tree.Global(e.Net, e.Tree, vals, func(x, y congest.Val) congest.Val {
		return congest.Val{A: min(x.A, y.A), B: min(x.B, y.B)}
	})
	if err != nil {
		return false, err
	}
	return got.A == -got.B, nil
}

// SpanningTree verifies that H is a spanning tree of G: connected and
// exactly n-1 edges (edge count by halved incident-degree sum).
func SpanningTree(e *core.Engine, h *Subgraph, lab *Labeling) (bool, error) {
	conn, err := Connected(e, lab)
	if err != nil {
		return false, err
	}
	vals := make([]congest.Val, e.N)
	for v := 0; v < e.N; v++ {
		deg := int64(0)
		for _, in := range h.PortRow(v) {
			if in {
				deg++
			}
		}
		vals[v] = congest.Val{A: deg}
	}
	got, err := tree.Global(e.Net, e.Tree, vals, congest.SumPair)
	if err != nil {
		return false, err
	}
	return conn && got.A == 2*int64(e.N-1), nil
}

// CutDisconnects reports whether deleting the edge set C (given node-locally
// like a Subgraph) disconnects G: label the components of G-C and test for
// more than one.
func CutDisconnects(e *core.Engine, cut *Subgraph) (bool, error) {
	rest := &Subgraph{Row: cut.Row, InH: make([]bool, len(cut.InH))}
	for h := range cut.InH {
		rest.InH[h] = !cut.InH[h]
	}
	lab, err := ComponentLabels(e, rest)
	if err != nil {
		return false, err
	}
	conn, err := Connected(e, lab)
	if err != nil {
		return false, err
	}
	return !conn, nil
}

const (
	kindParity int32 = iota + 130
	kindOddWave
)

// Bipartite reports whether the subgraph H is bipartite: parity levels
// flood from each component leader along H; any H-edge joining equal
// parities flags an odd cycle, and the flags are OR-aggregated globally.
func Bipartite(e *core.Engine, h *Subgraph, lab *Labeling) (bool, error) {
	n := e.N
	parity := make([]int64, n)
	conflict := make([]bool, n)
	for v := range parity {
		parity[v] = -1
	}
	pp := &parityProc{h: h, lab: lab, parity: parity, conflict: conflict}
	if _, err := e.Net.RunNodes("verify/parity", pp, e.Net.RoundCap()); err != nil {
		return false, err
	}
	vals := make([]congest.Val, n)
	for v := 0; v < n; v++ {
		if conflict[v] {
			vals[v] = congest.Val{A: 1}
		}
	}
	got, err := tree.Global(e.Net, e.Tree, vals, congest.OrPair)
	if err != nil {
		return false, err
	}
	return got.A == 0, nil
}

// parityProc floods parity levels from component leaders along H; an H-edge
// joining equal parities flags a conflict. Per-node state is the flat
// parity/conflict arrays.
type parityProc struct {
	h        *Subgraph
	lab      *Labeling
	parity   []int64
	conflict []bool
}

// Step implements congest.NodeProc.
func (p *parityProc) Step(ctx *congest.Ctx, v int) bool {
	inH := p.h.PortRow(v)
	adopt := func(par int64) {
		p.parity[v] = par
		for q, ok := range inH {
			if ok {
				ctx.Send(q, congest.Message{Kind: kindParity, A: 1 - par})
			}
		}
	}
	if ctx.Round() == 0 && p.lab.Info.IsLeader[v] {
		adopt(0)
	}
	ctx.ForRecv(func(m congest.Incoming) {
		want := m.Msg.A
		if p.parity[v] < 0 {
			adopt(want)
		} else if p.parity[v] != want {
			p.conflict[v] = true
		}
	})
	return false
}
