package tree

import "shortcutpa/internal/congest"

// Forest is a rooted forest as local knowledge: entry v of each slice is
// node v's. It is the one forest format of the protocol stack: the BFS tree
// T, the radius-D part-BFS trees, the sub-part trees and the heavy-path
// chains are all Forests, and Grow, Up, Down and ForestAgg walk any of
// them.
type Forest struct {
	ParentPort []int   // port toward v's parent; -1 at a root or an unreached node
	ChildPorts [][]int // ports toward v's children
	Depth      []int   // hop distance from v's root
}

// Message kinds of the forest walks.
const (
	kindGrow int32 = iota + 20
	kindChild
	kindUp
	kindDown
)

// Wave configures Forest.Grow.
type Wave struct {
	// Radius caps the trees: a node at depth Radius joins but does not
	// forward the wave.
	Radius int64
	// Ports returns node v's row of ports the wave may cross, indexed by
	// port.
	Ports func(v int) []bool
	// Start is asked at round 0 whether v roots a tree.
	Start func(ctx *congest.Ctx, v int) bool
	// Skip marks nodes that take no part: they neither start, adopt nor
	// reply. nil skips none.
	Skip []bool
	// Label, if non-nil, travels with the wave: an adopting node overwrites
	// its entry with its parent's.
	Label []int64
}

// Grow grows trees into f with a radius-capped multi-source BFS, logged as
// phase. Roots take depth 0 and keep their ParentPort; a node adopts the
// first JOIN it hears (the lowest sender index on ties), takes the port it
// came on as its parent and the carried depth as its own, replies CHILD so
// the parent appends the port to its ChildPorts, and forwards the wave over
// its other free wave ports. It returns which nodes joined a tree; the
// others keep their entries. O(Radius) rounds, at most one JOIN per wave
// port and one CHILD per adoption.
func (f *Forest) Grow(net *congest.Network, phase string, w Wave) ([]bool, error) {
	p := &growProc{f: f, w: w, joined: make([]bool, net.N())}
	if _, err := net.RunNodes(phase, p, net.RoundCap()); err != nil {
		return nil, err
	}
	return p.joined, nil
}

// growProc is Grow's shared state machine; per-node state is the forest
// and the flat joined array.
type growProc struct {
	f      *Forest
	w      Wave
	joined []bool
}

// Step implements congest.NodeProc.
func (p *growProc) Step(ctx *congest.Ctx, v int) bool {
	if p.w.Skip != nil && p.w.Skip[v] {
		return false
	}
	f := p.f
	join := func(depth int64) {
		p.joined[v] = true
		f.Depth[v] = int(depth)
		if depth >= p.w.Radius {
			return
		}
		m := congest.Message{Kind: kindGrow, B: depth + 1}
		if p.w.Label != nil {
			m.A = p.w.Label[v]
		}
		for q, ok := range p.w.Ports(v) {
			if ok && q != f.ParentPort[v] && ctx.CanSend(q) {
				ctx.Send(q, m)
			}
		}
	}
	if ctx.Round() == 0 && p.w.Start(ctx, v) {
		join(0)
	}
	ctx.ForRecv(func(in congest.Incoming) {
		switch in.Msg.Kind {
		case kindGrow:
			if p.joined[v] {
				return // a JOIN to a node already in a tree needs no reply
			}
			f.ParentPort[v] = in.Port
			if p.w.Label != nil {
				p.w.Label[v] = in.Msg.A
			}
			ctx.Send(in.Port, congest.Message{Kind: kindChild})
			join(in.Msg.B)
		case kindChild:
			f.ChildPorts[v] = append(f.ChildPorts[v], in.Port)
		}
	})
	return false
}

// Up folds vals up f with comb, logged as phase: a node reports its fold to
// its parent once every child has reported. child, if non-nil, maps each
// report (at node v, over child port port) to the value v folds in. It
// returns per-node folds: entry v is the fold over v's subtree once v has
// reported, and the zero Val if some child's report never arrived (a
// fault). A root's entry is its tree's aggregate. O(height) rounds, one
// message per non-root that reports.
func (f *Forest) Up(net *congest.Network, phase string, vals []congest.Val, comb congest.Combine,
	child func(v, port int, val congest.Val) congest.Val) ([]congest.Val, error) {
	n := net.N()
	p := &upProc{
		f: f, comb: comb, child: child,
		acc:     make([]congest.Val, n),
		waiting: make([]int, n),
		out:     make([]congest.Val, n),
	}
	copy(p.acc, vals)
	for v := 0; v < n; v++ {
		p.waiting[v] = len(f.ChildPorts[v])
	}
	if _, err := net.RunNodes(phase, p, net.RoundCap()); err != nil {
		return nil, err
	}
	return p.out, nil
}

// upProc is Up's shared state machine; per-node state is the flat
// acc/waiting/out arrays (waiting == -1 marks a node that has reported).
type upProc struct {
	f       *Forest
	comb    congest.Combine
	child   func(v, port int, val congest.Val) congest.Val
	acc     []congest.Val
	waiting []int
	out     []congest.Val
}

// Step implements congest.NodeProc.
func (p *upProc) Step(ctx *congest.Ctx, v int) bool {
	ctx.ForRecv(func(in congest.Incoming) {
		val := congest.Val{A: in.Msg.A, B: in.Msg.B}
		if p.child != nil {
			val = p.child(v, in.Port, val)
		}
		p.acc[v] = p.comb(p.acc[v], val)
		p.waiting[v]--
	})
	if p.waiting[v] == 0 {
		p.waiting[v] = -1
		p.out[v] = p.acc[v]
		if pp := p.f.ParentPort[v]; pp >= 0 {
			ctx.Send(pp, congest.Message{Kind: kindUp, A: p.acc[v].A, B: p.acc[v].B})
		}
	}
	return false
}

// Down pushes messages down f from chosen roots, logged as phase. At round
// 0, every node for which start gives ok holds start's message; any other
// node holds a message once one arrives from its parent. A node holding m
// calls at(v, m) and sends what at returns to each of its children (Down
// sets the Kind). O(height) rounds, one message per tree edge below a
// chosen root.
func (f *Forest) Down(net *congest.Network, phase string, start func(v int) (congest.Message, bool),
	at func(v int, m congest.Message) congest.Message) error {
	_, err := net.RunNodes(phase, &downProc{f: f, start: start, at: at}, net.RoundCap())
	return err
}

// downProc is Down's shared state machine; it keeps no per-node state of
// its own.
type downProc struct {
	f     *Forest
	start func(v int) (congest.Message, bool)
	at    func(v int, m congest.Message) congest.Message
}

// Step implements congest.NodeProc.
func (p *downProc) Step(ctx *congest.Ctx, v int) bool {
	pass := func(m congest.Message) {
		m = p.at(v, m)
		m.Kind = kindDown
		for _, q := range p.f.ChildPorts[v] {
			ctx.Send(q, m)
		}
	}
	if ctx.Round() == 0 {
		if m, ok := p.start(v); ok {
			pass(m)
		}
	}
	ctx.ForRecv(func(in congest.Incoming) { pass(in.Msg) })
	return false
}

// ForestAgg aggregates within each tree of a forest: one convergecast up
// each tree followed by a broadcast of the root's aggregate down it, in one
// phase. This is Lemma 6.4's observation that aggregating inside incomplete
// sub-parts is trivial: the trees have diameter O(D) and every node knows
// its parent. Algorithm 6 runs it on its sub-part forest (and drives star
// joinings with it, as a subpart.Agg); core's covered-part aggregation
// runs it on the part-BFS trees of the covered parts.
type ForestAgg struct {
	Net *congest.Network
	// Forest is read at every Aggregate call, so the owner may rewire it in
	// place between calls. Depth is not read.
	Forest *Forest
	// Phase names each run in the network's phase log.
	Phase string

	// Call-lifetime proc state, reused across Aggregate calls (Algorithm 6
	// makes O(log n) of them per level); every entry is rewritten per call.
	proc *forestAggProc
}

// Aggregate makes every node learn f over its tree's vals: entry v of the
// result is the aggregate of v's tree, or the zero Val if it never reached
// v (a fault).
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
		p.waiting[v] = len(fa.Forest.ChildPorts[v])
		p.fired[v] = false
	}
	defer func() { p.f, p.out = nil, nil }() // drop call-scoped references on every path
	if _, err := fa.Net.RunNodes(fa.Phase, p, fa.Net.RoundCap()); err != nil {
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
	children := p.fa.Forest.ChildPorts[v]
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindUp:
			p.acc[v] = p.f(p.acc[v], congest.Val{A: m.Msg.A, B: m.Msg.B})
			p.waiting[v]--
		case kindDown:
			p.out[v] = congest.Val{A: m.Msg.A, B: m.Msg.B}
			for _, q := range children {
				ctx.Send(q, m.Msg)
			}
		}
	})
	if p.waiting[v] == 0 && !p.fired[v] {
		p.fired[v] = true
		if pp := p.fa.Forest.ParentPort[v]; pp >= 0 {
			ctx.Send(pp, congest.Message{Kind: kindUp, A: p.acc[v].A, B: p.acc[v].B})
		} else {
			p.out[v] = p.acc[v]
			for _, q := range children {
				ctx.Send(q, congest.Message{Kind: kindDown, A: p.acc[v].A, B: p.acc[v].B})
			}
		}
	}
	return false
}
