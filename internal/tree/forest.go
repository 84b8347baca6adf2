package tree

import "shortcutpa/internal/congest"

// Forest is a rooted forest as local knowledge: entry v of each slice is
// node v's. It is the one forest format of the protocol stack: the BFS tree
// T, the radius-D part-BFS trees, the sub-part trees and the heavy-path
// chains are all Forests, and Grow, Up, Down and ForestAgg walk any of
// them. Up, Down and ForestAgg are stages of one proc, walk.
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
			if ok && q != f.ParentPort[v] {
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
	w := &walk{f: f, comb: comb, child: child, folds: make([]congest.Val, net.N())}
	w.reset(vals)
	if _, err := net.RunNodes(phase, w, net.RoundCap()); err != nil {
		return nil, err
	}
	return w.folds, nil
}

// Down pushes messages down f from chosen roots, logged as phase. At round
// 0, every node for which start gives ok holds start's message; any other
// node holds a message once one arrives from its parent. A node holding m
// calls at(v, m) and sends what at returns to each of its children (Down
// sets the Kind). O(height) rounds, one message per tree edge below a
// chosen root.
func (f *Forest) Down(net *congest.Network, phase string, start func(v int) (congest.Message, bool),
	at func(v int, m congest.Message) congest.Message) error {
	_, err := net.RunNodes(phase, &walk{f: f, start: start, at: at}, net.RoundCap())
	return err
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

	// The walk and its per-node arrays are reused across Aggregate calls
	// (Algorithm 6 makes O(log n) of them per level); every entry is
	// rewritten per call. out is the running call's result.
	walk *walk
	out  []congest.Val
}

// Aggregate makes every node learn f over its tree's vals: entry v of the
// result is the aggregate of v's tree, or the zero Val if it never reached
// v (a fault).
func (fa *ForestAgg) Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error) {
	if fa.walk == nil {
		fa.walk = &walk{at: func(v int, m congest.Message) congest.Message {
			fa.out[v] = congest.Val{A: m.A, B: m.B}
			return m
		}}
	}
	w := fa.walk
	w.f, w.comb = fa.Forest, f
	w.reset(vals)
	out := make([]congest.Val, fa.Net.N())
	fa.out = out
	defer func() { w.comb, fa.out = nil, nil }() // drop call-scoped references on every path
	if _, err := fa.Net.RunNodes(fa.Phase, w, fa.Net.RoundCap()); err != nil {
		return nil, err
	}
	return out, nil
}

// walk is the one state machine behind Up, Down and ForestAgg, in two
// stages. The up stage (comb non-nil) folds child reports into acc and
// reports to the parent once every child has; a root whose fold completes
// starts the down stage with it. The down stage (at non-nil) pushes from
// the nodes start picks at round 0, or from such roots: a node holding a
// message calls at and passes what it returns to its children. Per-node
// state is the flat acc/waiting/folds arrays.
type walk struct {
	f *Forest

	comb    congest.Combine
	child   func(v, port int, val congest.Val) congest.Val // nil: reports fold in as sent
	acc     []congest.Val
	waiting []int         // children yet to report; -1 once v has reported
	folds   []congest.Val // Up's result: v's fold, set when v reports; nil in ForestAgg

	start func(v int) (congest.Message, bool) // nil: the down stage starts at the roots
	at    func(v int, m congest.Message) congest.Message
}

// reset loads vals into the up stage and re-arms every node's child count,
// reusing the arrays.
func (w *walk) reset(vals []congest.Val) {
	n := len(w.f.ChildPorts)
	if len(w.acc) != n {
		w.acc, w.waiting = make([]congest.Val, n), make([]int, n)
	}
	copy(w.acc, vals)
	for v := range n {
		w.waiting[v] = len(w.f.ChildPorts[v])
	}
}

// Step implements congest.NodeProc.
func (w *walk) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && w.start != nil {
		if m, ok := w.start(v); ok {
			w.pass(ctx, v, m)
		}
	}
	ctx.ForRecv(func(in congest.Incoming) {
		if in.Msg.Kind == kindDown {
			w.pass(ctx, v, in.Msg)
			return
		}
		val := congest.Val{A: in.Msg.A, B: in.Msg.B}
		if w.child != nil {
			val = w.child(v, in.Port, val)
		}
		w.acc[v] = w.comb(w.acc[v], val)
		w.waiting[v]--
	})
	if w.comb != nil && w.waiting[v] == 0 {
		w.waiting[v] = -1
		acc := w.acc[v]
		if w.folds != nil {
			w.folds[v] = acc
		}
		if pp := w.f.ParentPort[v]; pp >= 0 {
			ctx.Send(pp, congest.Message{Kind: kindUp, A: acc.A, B: acc.B})
		} else if w.at != nil {
			w.pass(ctx, v, congest.Message{A: acc.A, B: acc.B})
		}
	}
	return false
}

// pass hands m to node v's at hook and sends what it returns to each of
// v's children.
func (w *walk) pass(ctx *congest.Ctx, v int, m congest.Message) {
	m = w.at(v, m)
	m.Kind = kindDown
	for _, q := range w.f.ChildPorts[v] {
		ctx.Send(q, m)
	}
}
