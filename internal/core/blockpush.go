package core

import (
	"fmt"
	"sort"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/subpart"
)

// blockpush.go reproduces the prior-work aggregation flow of Section 3.1
// verbatim: "every node in the block transmits its value up the block
// (along the tree's edges); when values from the same part arrive at a node
// in the block, they are aggregated by applying f and then forwarded up the
// block as a single value. By the end of this process, the root of the
// block has computed f of the block and can broadcast the result back
// down."
//
// On the Figure 2a grid-star instance (tree rooted at the apex r, every
// node claiming its column path) the values of a row part can only merge at
// r, so the up phase alone costs Ω(nD) messages — the paper's lower-bound
// demonstration for [GH16]/[HIZ16]-style aggregation. Solve with sub-part
// divisions does the same job in Õ(m).
//
// BlockPushAggregate requires every part to be spanned by a single block
// (as in the figure); it reports an error otherwise. It is an
// experiment-grade baseline: the round schedule (up-phase deadline) is set
// engine-side from D and the measured congestion, as prior work sets it
// from known worst-case bounds.

// Block-push message kinds.
const (
	kPushUp int32 = iota + 110
	kPushDown
)

// BlockPushAggregate runs the Section 3.1 prior-work aggregation over the
// shortcut in inf (typically built with InfraOptions.SingletonSubParts).
// Covered parts aggregate on their part tree as usual; every uncovered part
// must be spanned by one block.
func (e *Engine) BlockPushAggregate(inf *Infra, vals []congest.Val, f congest.Combine) (*Result, error) {
	if err := e.checkSingleBlock(inf); err != nil {
		return nil, err
	}
	n := e.N
	upDeadline := e.D + int64(inf.SC.Congestion()) + int64(e.N/(int(e.D)+1)) + 32
	pp := newPushProc(e, inf, f, vals, upDeadline)
	if _, err := e.Net.RunNodes("core/blockpush", pp, e.Net.RoundCap()); err != nil {
		return nil, fmt.Errorf("core: block push: %w", err)
	}
	for v := 0; v < n; v++ {
		if pp.lost[v] {
			return nil, fmt.Errorf("core: block-push schedule too tight at node %d; instance unsuitable for this baseline", v)
		}
	}
	// Covered parts aggregate on their part trees (same machinery as Solve,
	// with an empty shortcut contribution).
	coveredVals, err := e.coveredPartAggregate(inf, vals, f)
	if err != nil {
		return nil, err
	}
	out := &Result{Values: make([]congest.Val, n), Infra: inf}
	for v := 0; v < n; v++ {
		if inf.PB.Covered[v] {
			out.Values[v] = coveredVals[v]
			continue
		}
		if !pp.haveResult[v] {
			return nil, fmt.Errorf("core: block push left node %d without a result", v)
		}
		out.Values[v] = pp.result[v]
	}
	return out, nil
}

// checkSingleBlock verifies every uncovered part is spanned by one block
// (engine-side suitability check for the baseline).
func (e *Engine) checkSingleBlock(inf *Infra) error {
	counts := inf.SC.BlockCounts()
	seen := make(map[int64]bool)
	for v := 0; v < e.N; v++ {
		if inf.PB.Covered[v] {
			continue
		}
		i := inf.In.LeaderID[v]
		if !inf.SC.OnBlock(v, i) {
			return fmt.Errorf("core: node %d of part %d is off-block; block-push baseline needs spanning blocks", v, i)
		}
		seen[i] = true
	}
	for i := range seen {
		if counts[i] != 1 {
			return fmt.Errorf("core: part %d has %d blocks; block-push baseline needs exactly 1", i, counts[i])
		}
	}
	return nil
}

// coveredPartAggregate aggregates covered parts on their part trees with a
// plain convergecast + broadcast (both the paper's algorithm and the
// baselines handle small parts this way, so its cost is common-mode and
// kept out of the block-push comparison's differences). Uncovered nodes are
// cut out of the part-BFS forest: their partial BFS trees carry no run.
func (e *Engine) coveredPartAggregate(inf *Infra, vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	pb := inf.PB
	parent := make([]int, e.N)
	children := make([][]int, e.N)
	anyCovered := false
	for v := 0; v < e.N; v++ {
		parent[v] = -1
		if pb.Covered[v] {
			anyCovered = true
			parent[v], children[v] = pb.ParentPort[v], pb.ChildPorts[v]
		}
	}
	if !anyCovered {
		return nil, nil
	}
	fa := &subpart.ForestAgg{Net: e.Net, ParentPort: parent, ChildPorts: children,
		Phase: "core/covered-agg"}
	out, err := fa.Aggregate(vals, f)
	if err != nil {
		return nil, fmt.Errorf("core: covered-part aggregation: %w", err)
	}
	return out, nil
}

// pushProc is the shared block-push state machine; every per-node field of
// the former per-node proc became a flat array indexed by the stepped node
// (maps stay per-node, created lazily at round 0).
type pushProc struct {
	e        *Engine
	inf      *Infra
	f        congest.Combine
	val      []congest.Val
	deadline int64

	pending    []map[int64]congest.Val // accumulated, not yet forwarded up
	order      [][]int64               // FIFO of parts with pending values
	rootAgg    []map[int64]congest.Val
	rootHas    []map[int64]bool
	downQueue  []map[int][]congest.Message
	haveResult []bool
	result     []congest.Val
	finalized  []bool
	lost       []bool // a value missed the schedule: baseline unsuitable here
}

func newPushProc(e *Engine, inf *Infra, f congest.Combine, vals []congest.Val, deadline int64) *pushProc {
	n := e.N
	p := &pushProc{
		e: e, inf: inf, f: f, deadline: deadline,
		val:        make([]congest.Val, n),
		pending:    make([]map[int64]congest.Val, n),
		order:      make([][]int64, n),
		rootAgg:    make([]map[int64]congest.Val, n),
		rootHas:    make([]map[int64]bool, n),
		downQueue:  make([]map[int][]congest.Message, n),
		haveResult: make([]bool, n),
		result:     make([]congest.Val, n),
		finalized:  make([]bool, n),
		lost:       make([]bool, n),
	}
	copy(p.val, vals)
	return p
}

// Step implements congest.NodeProc.
func (p *pushProc) Step(ctx *congest.Ctx, v int) bool {
	inf := p.inf
	sc := inf.SC
	myPart := inf.In.LeaderID[v]
	if ctx.Round() == 0 {
		p.pending[v] = make(map[int64]congest.Val)
		p.rootAgg[v] = make(map[int64]congest.Val)
		p.rootHas[v] = make(map[int64]bool)
		p.downQueue[v] = make(map[int][]congest.Message)
		if !inf.PB.Covered[v] {
			p.add(v, myPart, p.val[v])
		}
		// Sleep until the deadline unless values arrive or wait to go up.
		ctx.WakeAt(p.deadline)
	}
	ctx.ForRecv(func(in congest.Incoming) {
		switch in.Msg.Kind {
		case kPushUp:
			if p.finalized[v] {
				p.lost[v] = true
				return
			}
			p.add(v, in.Msg.A, congest.Val{A: in.Msg.B, B: in.Msg.C})
		case kPushDown:
			i := in.Msg.A
			if i == myPart && !p.haveResult[v] {
				p.haveResult[v] = true
				p.result[v] = congest.Val{A: in.Msg.B, B: in.Msg.C}
			}
			for _, q := range sc.DownPorts(v, i) {
				if q != in.Port {
					p.downQueue[v][q] = append(p.downQueue[v][q], in.Msg)
				}
			}
		}
	})
	// Up phase: forward one pending part's (merged) value per round; values
	// stop at the part's block root, accumulating there.
	if ctx.Round() < p.deadline && len(p.order[v]) > 0 {
		i := p.order[v][0]
		val := p.pending[v][i]
		if sc.HasUp(v, i) {
			p.order[v] = p.order[v][1:]
			delete(p.pending[v], i)
			ctx.Send(p.e.Tree.ParentPort[v], congest.Message{Kind: kPushUp, A: i, B: val.A, C: val.B})
		} else {
			// Block root for i: fold into the root accumulator.
			p.order[v] = p.order[v][1:]
			delete(p.pending[v], i)
			if p.rootHas[v][i] {
				p.rootAgg[v][i] = p.f(p.rootAgg[v][i], val)
			} else {
				p.rootAgg[v][i] = val
				p.rootHas[v][i] = true
			}
		}
	}
	// At the deadline, block roots finalize and start the down broadcast.
	if ctx.Round() == p.deadline && !p.finalized[v] {
		p.finalized[v] = true
		// One more step after it, as a node active through the deadline
		// would take: the phase runs at least that long.
		ctx.WakeAt(p.deadline + 1)
		// A value still in transit at the deadline means the schedule was
		// too tight for this instance; flag it so the caller gets an error
		// instead of a silent wrong answer.
		if len(p.order[v]) > 0 {
			p.lost[v] = true
		}
		p.order[v] = nil
		p.pending[v] = make(map[int64]congest.Val)
		roots := make([]int64, 0, len(p.rootAgg[v]))
		for i := range p.rootAgg[v] {
			roots = append(roots, i)
		}
		sort.Slice(roots, func(a, b int) bool { return roots[a] < roots[b] })
		for _, i := range roots {
			if !sc.IsBlockRoot(v, i) {
				continue
			}
			val := p.rootAgg[v][i]
			if i == myPart && !inf.PB.Covered[v] && !p.haveResult[v] {
				p.haveResult[v] = true
				p.result[v] = val
			}
			m := congest.Message{Kind: kPushDown, A: i, B: val.A, C: val.B}
			for _, q := range sc.DownPorts(v, i) {
				p.downQueue[v][q] = append(p.downQueue[v][q], m)
			}
		}
	}
	// Down phase: one message per port per round.
	pendingDown := false
	ports := make([]int, 0, len(p.downQueue[v]))
	for q := range p.downQueue[v] {
		ports = append(ports, q)
	}
	sort.Ints(ports)
	for _, q := range ports {
		queue := p.downQueue[v][q]
		if len(queue) == 0 {
			continue
		}
		if ctx.CanSend(q) {
			ctx.Send(q, queue[0])
			p.downQueue[v][q] = queue[1:]
		}
		if len(p.downQueue[v][q]) > 0 {
			pendingDown = true
		}
	}
	return len(p.order[v]) > 0 || pendingDown
}

// add merges an incoming value into node v's per-part pending accumulator.
func (p *pushProc) add(v int, i int64, val congest.Val) {
	if have, ok := p.pending[v][i]; ok {
		p.pending[v][i] = p.f(have, val)
		return
	}
	p.pending[v][i] = val
	p.order[v] = append(p.order[v], i)
}
