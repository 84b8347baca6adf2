package subpart

import (
	"shortcutpa/internal/congest"
)

// ForestAgg aggregates within each tree of a rooted forest: one convergecast
// up each tree followed by a broadcast of the root's aggregate down it.
// This is Lemma 6.4's observation that aggregating inside incomplete
// sub-parts is trivial: the trees have diameter O(D) and every node knows
// its parent. Algorithm 6 runs it on its sub-part forest (and drives star
// joinings with it, as an Agg); core's covered-part aggregation runs it on
// the part-BFS trees of the covered parts.
type ForestAgg struct {
	Net *congest.Network
	// ParentPort[v] is v's port toward its parent, -1 at a root; ChildPorts[v]
	// are its ports toward its children. Entry v is node v's knowledge. The
	// slices are read at every Aggregate call, so the owner may rewire the
	// forest in place between calls.
	ParentPort []int
	ChildPorts [][]int
	// Phase names each run in the network's phase log.
	Phase string
	// Budget caps each run.
	Budget int64

	// Call-lifetime proc state, reused across Aggregate calls (Algorithm 6
	// makes O(log n) of them per level); every entry is rewritten per call.
	proc *forestAggProc
}

var _ Agg = (*ForestAgg)(nil)

// Forest-aggregation message kinds.
const (
	kindForestUp int32 = iota + 65
	kindForestDown
)

// Aggregate implements Agg over the forest's trees.
func (fa *ForestAgg) Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	n := fa.Net.N()
	out := make([]congest.Val, n)
	if fa.proc == nil {
		fa.proc = &forestAggProc{
			fa:      fa,
			acc:     make([]congest.Val, n),
			waiting: make([]int, n),
			fired:   make([]bool, n),
		}
	}
	p := fa.proc
	p.f, p.out = f, out
	copy(p.acc, vals)
	for v := 0; v < n; v++ {
		p.waiting[v] = len(fa.ChildPorts[v])
		p.fired[v] = false
	}
	defer func() { p.f, p.out = nil, nil }() // drop call-scoped references on every path
	if _, err := fa.Net.RunNodes(fa.Phase, p, fa.Budget); err != nil {
		return nil, err
	}
	return out, nil
}

// forestAggProc is the shared convergecast + broadcast state machine over
// the forest; per-node state is the flat acc/waiting/fired arrays.
type forestAggProc struct {
	fa      *ForestAgg
	f       congest.Combine
	out     []congest.Val
	acc     []congest.Val
	waiting []int
	fired   []bool
}

// Step implements congest.NodeProc.
func (p *forestAggProc) Step(ctx *congest.Ctx, v int) bool {
	children := p.fa.ChildPorts[v]
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindForestUp:
			p.acc[v] = p.f(p.acc[v], congest.Val{A: m.Msg.A, B: m.Msg.B})
			p.waiting[v]--
		case kindForestDown:
			p.out[v] = congest.Val{A: m.Msg.A, B: m.Msg.B}
			for _, q := range children {
				ctx.Send(q, m.Msg)
			}
		}
	})
	if p.waiting[v] == 0 && !p.fired[v] {
		p.fired[v] = true
		if pp := p.fa.ParentPort[v]; pp >= 0 {
			ctx.Send(pp, congest.Message{Kind: kindForestUp, A: p.acc[v].A, B: p.acc[v].B})
		} else {
			p.out[v] = p.acc[v]
			for _, q := range children {
				ctx.Send(q, congest.Message{Kind: kindForestDown, A: p.acc[v].A, B: p.acc[v].B})
			}
		}
	}
	return false
}
