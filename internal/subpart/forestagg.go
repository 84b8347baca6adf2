package subpart

import (
	"shortcutpa/internal/congest"
)

// ForestAgg aggregates within the sub-part forest of a Division: one
// convergecast up each sub-part tree followed by a broadcast down it. This
// is Lemma 6.4's observation that aggregating inside incomplete sub-parts
// is trivial: the trees have diameter O(D) and every node knows its parent.
// It implements Agg, so Algorithm 6 can drive star joinings with it.
type ForestAgg struct {
	Net *congest.Network
	Div *Division
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

// Aggregate implements Agg over the division's sub-part trees.
func (fa *ForestAgg) Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	n := fa.Net.N()
	out := make([]congest.Val, n)
	if fa.proc == nil {
		fa.proc = &forestAggProc{
			div:     fa.Div,
			acc:     make([]congest.Val, n),
			waiting: make([]int, n),
			fired:   make([]bool, n),
		}
	}
	p := fa.proc
	p.f, p.out = f, out
	copy(p.acc, vals)
	for v := 0; v < n; v++ {
		p.waiting[v] = len(fa.Div.ChildPorts[v])
		p.fired[v] = false
	}
	defer func() { p.f, p.out = nil, nil }() // drop call-scoped references on every path
	if _, err := fa.Net.RunNodes("subpart/forest-agg", p, fa.Budget); err != nil {
		return nil, err
	}
	return out, nil
}

// forestAggProc is the shared convergecast + broadcast state machine over
// the sub-part forest; per-node state is the flat acc/waiting/fired arrays.
type forestAggProc struct {
	div     *Division
	f       congest.Combine
	out     []congest.Val
	acc     []congest.Val
	waiting []int
	fired   []bool
}

// Step implements congest.NodeProc.
func (p *forestAggProc) Step(ctx *congest.Ctx, v int) bool {
	div := p.div
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindForestUp:
			p.acc[v] = p.f(p.acc[v], congest.Val{A: m.Msg.A, B: m.Msg.B})
			p.waiting[v]--
		case kindForestDown:
			p.out[v] = congest.Val{A: m.Msg.A, B: m.Msg.B}
			for _, q := range div.ChildPorts[v] {
				ctx.Send(q, m.Msg)
			}
		}
	})
	if p.waiting[v] == 0 && !p.fired[v] {
		p.fired[v] = true
		if pp := div.ParentPort[v]; pp >= 0 {
			ctx.Send(pp, congest.Message{Kind: kindForestUp, A: p.acc[v].A, B: p.acc[v].B})
		} else {
			p.out[v] = p.acc[v]
			for _, q := range div.ChildPorts[v] {
				ctx.Send(q, congest.Message{Kind: kindForestDown, A: p.acc[v].A, B: p.acc[v].B})
			}
		}
	}
	return false
}
