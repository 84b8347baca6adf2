package subpart

import (
	"fmt"
	"math"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
)

// Message kinds used by this package's protocols.
const (
	kindClaim int32 = iota + 50
	kindChild
	kindRepExchange
)

// Division is a sub-part division as local knowledge: entry v of each
// per-node slice belongs to node v; SameSub is flat over the CSR offsets.
type Division struct {
	RepID      []int64 // ID of v's sub-part representative
	IsRep      []bool
	ParentPort []int // toward the representative within the sub-part tree; -1 at the rep
	ChildPorts [][]int
	WholePart  []bool // v's part is one sub-part (the covered / small-part branch)
	// Row/SameSub mirror part.Info's flat layout: SameSub[Row[v]+q] reports
	// whether the neighbor behind port q of node v is in the same sub-part.
	Row     []int32
	SameSub []bool
	Depth   []int // hop distance to the representative along the sub-part tree
}

// SameSubAt reports whether port q of node v stays inside v's sub-part.
func (d *Division) SameSubAt(v, q int) bool { return d.SameSub[d.Row[v]+int32(q)] }

// SameSubRow returns node v's per-port window of the flat SameSub array.
func (d *Division) SameSubRow(v int) []bool { return d.SameSub[d.Row[v]:d.Row[v+1]] }

func newDivision(net *congest.Network) *Division {
	n := net.N()
	csr := net.Graph().CSR()
	d := &Division{
		RepID:      make([]int64, n),
		IsRep:      make([]bool, n),
		ParentPort: make([]int, n),
		ChildPorts: make([][]int, n),
		WholePart:  make([]bool, n),
		Row:        csr.RowStart,
		SameSub:    make([]bool, len(csr.PortTo)),
		Depth:      make([]int, n),
	}
	for v := range d.ParentPort {
		d.ParentPort[v] = -1
		d.RepID[v] = -1
		d.Depth[v] = -1
	}
	return d
}

// RandomDivision computes a sub-part division via Algorithm 3. Parts covered
// by pb (intra-part BFS of radius D reached everyone) become a single
// sub-part rooted at the leader. In larger parts every node self-elects as a
// representative with probability min(1, ln(n)/D) and an O(D)-round
// restricted wave has each node adopt the first representative it hears
// (w.h.p. every node is reached and each part gets Õ(|P_i|/D) sub-parts,
// Lemma 5.1). Nodes left unreached — a 1/poly(n) probability event — fall
// back to singleton sub-parts, preserving correctness unconditionally.
func RandomDivision(net *congest.Network, in *part.Info, pb *part.BFS, d int64) (*Division, error) {
	n := net.N()
	if d < 1 {
		d = 1
	}
	div := newDivision(net)

	// Covered parts: adopt the part BFS tree wholesale.
	for v := 0; v < n; v++ {
		if pb.Covered[v] {
			div.RepID[v] = in.LeaderID[v]
			div.IsRep[v] = in.IsLeader[v]
			div.ParentPort[v] = pb.ParentPort[v]
			div.ChildPorts[v] = append([]int(nil), pb.ChildPorts[v]...)
			div.WholePart[v] = true
			div.Depth[v] = pb.Depth[v]
		}
	}

	// Sampling wave over uncovered parts, with the paper's probability
	// min{1, log n / D}; the singleton fallback below covers the 1/poly(n)
	// failure probability unconditionally.
	prob := math.Min(1, math.Log(float64(n)+2)/float64(d))
	wp := &waveProc{in: in, div: div, covered: pb.Covered, d: d, prob: prob,
		claimed: make([]bool, n)}
	if _, err := net.RunNodes("subpart/wave", wp, net.RoundCap()); err != nil {
		return nil, err
	}

	// Unreached nodes of uncovered parts become singleton representatives.
	for v := 0; v < n; v++ {
		if div.RepID[v] < 0 {
			div.RepID[v] = net.ID(v)
			div.IsRep[v] = true
		}
	}

	if err := exchangeReps(net, in, div); err != nil {
		return nil, err
	}
	return div, nil
}

// waveProc implements the Algorithm 3 wave: self-elect with probability
// prob, then adopt the first representative ID heard, register as a child,
// and forward the wave within the ball of radius d. Shared across nodes;
// per-node state is the division plus the flat covered/claimed arrays.
type waveProc struct {
	in      *part.Info
	div     *Division
	d       int64
	prob    float64
	covered []bool
	claimed []bool
}

// Step implements congest.NodeProc.
func (w *waveProc) Step(ctx *congest.Ctx, v int) bool {
	if w.covered[v] {
		return false
	}
	div := w.div
	same := w.in.SameRow(v)
	forward := func(depth int64) {
		if depth >= w.d {
			return
		}
		for q, ok := range same {
			if ok && q != div.ParentPort[v] && ctx.CanSend(q) {
				ctx.Send(q, congest.Message{Kind: kindClaim, A: div.RepID[v], B: depth + 1})
			}
		}
	}
	if ctx.Round() == 0 && ctx.Rand().Float64() < w.prob {
		w.claimed[v] = true
		div.IsRep[v] = true
		div.RepID[v] = ctx.ID()
		div.Depth[v] = 0
		forward(0)
	}
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindClaim:
			if w.claimed[v] {
				return
			}
			w.claimed[v] = true
			div.RepID[v] = m.Msg.A
			div.ParentPort[v] = m.Port
			div.Depth[v] = int(m.Msg.B)
			ctx.Send(m.Port, congest.Message{Kind: kindChild})
			forward(m.Msg.B)
		case kindChild:
			div.ChildPorts[v] = append(div.ChildPorts[v], m.Port)
		}
	})
	return false
}

// exchangeReps has every node announce its representative ID across
// intra-part edges so that both endpoints learn whether the edge stays
// inside a sub-part (needed for Algorithm 1's exit-edge broadcasts).
// One round, O(Σ_i m_i) messages.
func exchangeReps(net *congest.Network, in *part.Info, div *Division) error {
	_, err := net.RunNodes("subpart/exchange", &repExchangeProc{in: in, div: div}, net.RoundCap())
	return err
}

// repExchangeProc announces RepID across intra-part edges and records
// same-sub-part flags into the division's flat SameSub array.
type repExchangeProc struct {
	in  *part.Info
	div *Division
}

// Step implements congest.NodeProc.
func (p *repExchangeProc) Step(ctx *congest.Ctx, v int) bool {
	div := p.div
	if ctx.Round() == 0 {
		for q, ok := range p.in.SameRow(v) {
			if ok {
				ctx.Send(q, congest.Message{Kind: kindRepExchange, A: div.RepID[v]})
			}
		}
	}
	subRow := div.SameSubRow(v)
	ctx.ForRecv(func(m congest.Incoming) {
		subRow[m.Port] = m.Msg.A == div.RepID[v]
	})
	return false
}

// Validate checks division invariants engine-side (test/diagnostic aid):
// sub-part trees stay within parts, parent pointers lead acyclically to the
// representative within the stated depth, child/parent views agree, and
// SameSub matches RepID equality.
func (div *Division) Validate(net *congest.Network, in *part.Info, maxDepth int) error {
	g := net.Graph()
	n := g.N()
	for v := 0; v < n; v++ {
		if div.IsRep[v] {
			if div.RepID[v] != net.ID(v) {
				return fmt.Errorf("subpart: rep %d has RepID %d, want own ID", v, div.RepID[v])
			}
			if div.ParentPort[v] != -1 {
				return fmt.Errorf("subpart: rep %d has a parent", v)
			}
		}
		// Walk to the representative.
		u, steps := v, 0
		for div.ParentPort[u] >= 0 {
			next := g.Neighbor(u, div.ParentPort[u])
			if in.Dense[next] != in.Dense[v] {
				return fmt.Errorf("subpart: tree edge %d-%d crosses parts", u, next)
			}
			if div.RepID[next] != div.RepID[v] {
				return fmt.Errorf("subpart: tree edge %d-%d crosses sub-parts", u, next)
			}
			u = next
			steps++
			if steps > n {
				return fmt.Errorf("subpart: parent cycle at node %d", v)
			}
		}
		if !div.IsRep[u] {
			return fmt.Errorf("subpart: node %d's chain ends at non-rep %d", v, u)
		}
		if div.RepID[v] != net.ID(u) {
			return fmt.Errorf("subpart: node %d RepID %d but chain reaches %d", v, div.RepID[v], net.ID(u))
		}
		if maxDepth > 0 && steps > maxDepth {
			return fmt.Errorf("subpart: node %d at tree depth %d > %d", v, steps, maxDepth)
		}
		for _, q := range div.ChildPorts[v] {
			c := g.Neighbor(v, q)
			if div.ParentPort[c] < 0 || g.Neighbor(c, div.ParentPort[c]) != v {
				return fmt.Errorf("subpart: child link %d->%d not mirrored", v, c)
			}
		}
		var mismatch error
		g.ForPorts(v, func(q, u, _ int) bool {
			want := in.Dense[u] == in.Dense[v] && div.RepID[u] == div.RepID[v]
			if in.Dense[u] == in.Dense[v] && div.SameSubAt(v, q) != want {
				mismatch = fmt.Errorf("subpart: SameSub[%d][%d]=%v, want %v", v, q, div.SameSubAt(v, q), want)
				return false
			}
			return true
		})
		if mismatch != nil {
			return mismatch
		}
	}
	return nil
}

// CountSubParts returns (engine-side) the number of sub-parts per dense part
// ID.
func (div *Division) CountSubParts(in *part.Info) map[int]int {
	repsSeen := make(map[int]map[int64]struct{})
	for v, p := range in.Dense {
		if repsSeen[p] == nil {
			repsSeen[p] = make(map[int64]struct{})
		}
		repsSeen[p][div.RepID[v]] = struct{}{}
	}
	out := make(map[int]int, len(repsSeen))
	for p, s := range repsSeen {
		out[p] = len(s)
	}
	return out
}
