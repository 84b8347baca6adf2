package core

import (
	"slices"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
	"shortcutpa/internal/subpart"
)

// router.go is the event-driven realization of Algorithm 1 (PA given a
// sub-part division and a T-restricted shortcut) and Algorithm 2
// (verification). The paper presents Algorithm 1 as b lock-step iterations
// of (BlockRoute between representatives; broadcast inside sub-parts;
// one-hop crossing of sub-part exits; routing to representatives) followed
// by a symmetric convergecast and a symmetric result broadcast. Here the
// same flows run event-driven: every information-carrying transmission is a
// TOKEN that the receiver either adopts (first receipt — the edge joins the
// part's broadcast tree) or declines, and the convergecast runs back up the
// recorded broadcast tree. Lock-step iterations are a worst-case analysis
// device; the event-driven execution performs a subset of the same sends,
// so its round count is bounded by the paper's O(bD+c) / O(b(D+c)) budgets,
// which the budget-doubling driver (construct.go) verifies explicitly.
//
// Block traversal follows Observation 4.3's message accounting: only
// representatives inject; every representative on a block lays a BEACON
// path rootward along its block, and tokens descend only along recorded
// beacon paths, so block messages total O(#reps · D) rather than Ω(Σ|H_i|).
//
// Lemma 4.2's scheduling discipline is realized by per-port queues: the
// deterministic variant forwards the packet whose block root is shallowest
// (ties by part ID, then arrival order); the randomized variant uses FIFO
// queues with the whole part delayed by a pseudo-random offset in [0, c)
// derived from the part ID (Algorithm 1's "delay ~ U(c)").
//
// A node steps only when it has something to do: a delivery, a queued
// send, or a clock duty. The duties — its part's start after the delay;
// in verification the complaint round and, two rounds later, the first
// round its own part's aggregate may seal — are known from the round
// number alone, so the node sleeps until each with Ctx.WakeAt instead of
// stepping every round. The rounds and messages are those of a node that
// stepped every round: the last duty falls on the round such a node last
// stepped.
//
// Node state is flat: one partState record per part the node has heard of,
// in a slice sorted by part ID, and send queues indexed by port with an
// ascending list of the busy ports. A step costs O(busy ports + known
// parts) — flush walks the busy list, tryComplete the record slice — in
// ascending (port, part ID) order, the order the message schedule and so
// every round and message count depend on. The Engine recycles the whole
// run, records and queues included, across router runs.

// Router message kinds.
const (
	kToken int32 = iota + 80
	kBeacon
	kAckAdopt
	kAckDecline
	kAgg
	kAggEmpty
	kResult
	kComplain
)

// routerMode selects between solving PA and verifying coverage (Alg 2).
type routerMode int

const (
	modeSolve routerMode = iota + 1
	modeVerify
)

// routerConfig is shared read-only state for one router run.
type routerConfig struct {
	eng        *Engine
	in         *part.Info
	div        *subpart.Division
	covered    []bool // the part-BFS verdict: v's part is one sub-part
	sc         *shortcut.Shortcut
	mode       routerMode
	vals       []congest.Val
	f          congest.Combine
	det        bool
	delayRange int64 // randomized: parts delayed by hash(part) mod delayRange
	verifyAt   int64 // verify mode: round at which uncovered nodes complain
	castSeed   int64
}

// partDelay derives the part's start delay from its ID (all members compute
// it identically with no communication).
func (cfg *routerConfig) partDelay(partID int64) int64 {
	if cfg.delayRange <= 1 {
		return 0
	}
	x := uint64(partID) ^ uint64(cfg.castSeed)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x % uint64(cfg.delayRange))
}

// queued is one message waiting on a port, with its scheduling priority.
type queued struct {
	pri1, pri2 int64 // (block-root depth, part ID) for the deterministic rule
	seq        int64
	msg        congest.Message
}

// partState is everything one node knows about one part: its token, its
// beacon paths, and its convergecast. A node holds one record per part it
// has heard of, in routerProc.parts.
type partState struct {
	id   int64
	pri1 int64 // Meta root depth: the deterministic discipline key
	via  int   // first-receipt port; -1 at the origin

	informed   bool
	beaconFwd  bool
	aggHas     bool
	aggSent    bool
	resultSeen bool

	pendingAcks int
	aggWait     int
	agg         congest.Val

	beaconPorts []int
	children    []int
	offered     []int // ports the token was offered on, ascending
}

// routerRun is the router phase's shared state machine: one backing array
// of per-node records, stepped through the node index — no per-node proc
// objects or closures. The Engine keeps one routerRun and recycles it, with
// every per-node slice, across router runs.
type routerRun struct {
	nodes  []routerProc
	queues [][]queued // all port queues; node v's are its CSR row
}

// Step implements congest.NodeProc.
func (r *routerRun) Step(ctx *congest.Ctx, v int) bool { return r.nodes[v].step(ctx) }

// routerProc is one node's router state (a record in routerRun's backing
// array, not an individually allocated proc).
type routerProc struct {
	cfg    *routerConfig
	v      int
	myPart int64

	treePorts []int // sub-part tree ports (parent + children)
	exitPorts []int // same-part ports leaving my sub-part

	queues  [][]queued // indexed by port
	busy    []int      // ports with a non-empty queue, ascending
	seq     int64
	started bool
	delay   int64
	wake    int64 // the clock duty last asked for with WakeAt (0: none yet)

	parts []partState // every part heard of, ascending ID

	ownVal     congest.Val
	complained bool

	gotResult bool
	result    congest.Val
}

// reset refills one routerRun record in place for a new run, keeping the
// capacity of its slices.
func (p *routerProc) reset(cfg *routerConfig, v int, queues [][]queued) {
	for _, q := range p.busy {
		p.queues[q] = p.queues[q][:0]
	}
	*p = routerProc{
		cfg:       cfg,
		v:         v,
		myPart:    cfg.in.LeaderID[v],
		treePorts: p.treePorts[:0],
		exitPorts: p.exitPorts[:0],
		queues:    queues,
		busy:      p.busy[:0],
		parts:     p.parts[:0],
	}
	if cfg.mode == modeSolve {
		p.ownVal = cfg.vals[v]
	}
	div := cfg.div
	if pp := div.ParentPort[v]; pp >= 0 {
		p.treePorts = append(p.treePorts, pp)
	}
	p.treePorts = append(p.treePorts, div.ChildPorts[v]...)
	same := cfg.in.SameRow(v)
	sub := div.SameSubRow(v)
	for q := range same {
		if same[q] && !sub[q] {
			p.exitPorts = append(p.exitPorts, q)
		}
	}
	p.delay = cfg.partDelay(p.myPart)
}

// part returns the node's record for part i, creating it on first mention.
// The pointer is valid until the next call creates a record.
func (p *routerProc) part(i int64) *partState {
	lo, hi := 0, len(p.parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.parts[mid].id < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.parts) && p.parts[lo].id == i {
		return &p.parts[lo]
	}
	// Insert at lo. The slot the append overwrites may hold a record from
	// an earlier run: its slices are recycled for the new one.
	n := len(p.parts)
	var spare partState
	if n < cap(p.parts) {
		spare = p.parts[:n+1][n]
	}
	p.parts = append(p.parts, partState{})
	copy(p.parts[lo+1:], p.parts[lo:n])
	s := &p.parts[lo]
	*s = partState{
		id:          i,
		beaconPorts: spare.beaconPorts[:0],
		children:    spare.children[:0],
		offered:     spare.offered[:0],
	}
	if p.cfg.det {
		s.pri1, _ = p.cfg.sc.RootDepth(p.v, i)
	}
	return s
}

// enqueue schedules a message of part s on a port with the part's
// discipline key.
func (p *routerProc) enqueue(port int, s *partState, m congest.Message) {
	q := p.queues[port]
	if len(q) == 0 {
		k, _ := slices.BinarySearch(p.busy, port)
		p.busy = slices.Insert(p.busy, k, port)
	}
	p.queues[port] = append(q, queued{pri1: s.pri1, pri2: m.A, seq: p.seq, msg: m})
	p.seq++
}

// flush sends at most one queued message per busy port (ascending), picking
// by discipline, and reports whether any queue still has work.
func (p *routerProc) flush(ctx *congest.Ctx) bool {
	keep := p.busy[:0]
	for _, port := range p.busy {
		q := p.queues[port]
		if ctx.CanSend(port) {
			best := 0
			if p.cfg.det {
				for i := 1; i < len(q); i++ {
					if lessKey(q[i], q[best]) {
						best = i
					}
				}
			}
			ctx.Send(port, q[best].msg)
			q = append(q[:best], q[best+1:]...)
			p.queues[port] = q
		}
		if len(q) > 0 {
			keep = append(keep, port)
		}
	}
	p.busy = keep
	return len(keep) > 0
}

func lessKey(a, b queued) bool {
	if a.pri1 != b.pri1 {
		return a.pri1 < b.pri1
	}
	if a.pri2 != b.pri2 {
		return a.pri2 < b.pri2
	}
	return a.seq < b.seq
}

// sendToken offers part s's token on port q at most once.
func (p *routerProc) sendToken(s *partState, q int) {
	k, found := slices.BinarySearch(s.offered, q)
	if found {
		return
	}
	s.offered = slices.Insert(s.offered, k, q)
	s.pendingAcks++
	p.enqueue(q, s, congest.Message{Kind: kToken, A: s.id})
}

// spread performs the forwarding a node owes after adopting part s's token:
// members flood their sub-part tree and exit edges (Algorithm 1 lines
// 13-18); nodes on the part's block relay rootward and serve beacon paths.
func (p *routerProc) spread(s *partState) {
	cfg := p.cfg
	i, via := s.id, s.via
	if i == p.myPart {
		for _, q := range p.treePorts {
			if q != via {
				p.sendToken(s, q)
			}
		}
		for _, q := range p.exitPorts {
			if q != via {
				p.sendToken(s, q)
			}
		}
	}
	if cfg.sc.OnBlock(p.v, i) {
		if cfg.sc.HasUp(p.v, i) {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 && pp != via {
				p.sendToken(s, pp)
			}
		}
		for _, q := range s.beaconPorts {
			if q != via {
				p.sendToken(s, q)
			}
		}
	}
}

// startActions fires once the part's delay expires: the leader originates
// its token; representatives of shortcut-using sub-parts lay beacons.
func (p *routerProc) startActions() {
	cfg := p.cfg
	s := p.part(p.myPart)
	if cfg.in.IsLeader[p.v] {
		s.informed = true
		s.via = -1
		p.spread(s)
	}
	if cfg.div.IsRep[p.v] && !cfg.covered[p.v] &&
		cfg.sc.HasUp(p.v, p.myPart) && !s.beaconFwd {
		if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
			s.beaconFwd = true
			p.enqueue(pp, s, congest.Message{Kind: kBeacon, A: p.myPart})
		}
	}
}

func (p *routerProc) handle(in congest.Incoming) {
	cfg := p.cfg
	i := in.Msg.A
	if in.Msg.Kind == kComplain {
		// A same-part neighbor did not receive the token (verify mode):
		// record the complaint in this node's contributed bit.
		p.ownVal = congest.OrPair(p.ownVal, congest.Val{A: 1})
		return
	}
	s := p.part(i)
	switch in.Msg.Kind {
	case kToken:
		if s.informed {
			p.enqueue(in.Port, s, congest.Message{Kind: kAckDecline, A: i})
			return
		}
		s.informed = true
		s.via = in.Port
		p.enqueue(in.Port, s, congest.Message{Kind: kAckAdopt, A: i})
		p.spread(s)
	case kBeacon:
		if !slices.Contains(s.beaconPorts, in.Port) {
			s.beaconPorts = append(s.beaconPorts, in.Port)
		}
		// Serve the beacon now if the token already passed through and the
		// aggregate has not been sealed (a post-seal adoption would orphan
		// the new child's aggregate; such terminals are reached by the
		// intra-part flood instead).
		if s.informed && !s.aggSent {
			p.sendToken(s, in.Port)
		}
		if cfg.sc.HasUp(p.v, i) && !s.beaconFwd {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
				s.beaconFwd = true
				p.enqueue(pp, s, congest.Message{Kind: kBeacon, A: i})
			}
		}
	case kAckAdopt:
		s.pendingAcks--
		s.children = append(s.children, in.Port)
		s.aggWait++
	case kAckDecline:
		s.pendingAcks--
	case kAgg:
		val := congest.Val{A: in.Msg.B, B: in.Msg.C}
		if s.aggHas {
			s.agg = cfg.f(s.agg, val)
		} else {
			s.agg = val
			s.aggHas = true
		}
		s.aggWait--
	case kAggEmpty:
		s.aggWait--
	case kResult:
		val := congest.Val{A: in.Msg.B, B: in.Msg.C}
		if p.forwardResult(s, val) && i == p.myPart {
			p.gotResult = true
			p.result = val
		}
	}
}

// forwardResult pushes a result down the adopted subtree once; reports
// whether this was the first receipt.
func (p *routerProc) forwardResult(s *partState, val congest.Val) bool {
	if s.resultSeen {
		return false
	}
	s.resultSeen = true
	for _, q := range s.children {
		p.enqueue(q, s, congest.Message{Kind: kResult, A: s.id, B: val.A, C: val.B})
	}
	return true
}

// tryComplete seals aggregates whose subtrees have fully reported: interior
// nodes send AGG up their adoption port; the origin (leader) computes the
// final value and starts the RESULT broadcast. Parts are visited in
// ascending ID order, the order of the record slice.
func (p *routerProc) tryComplete(round int64) {
	cfg := p.cfg
	for k := range p.parts {
		s := &p.parts[k]
		if !s.informed || s.aggSent || s.pendingAcks != 0 || s.aggWait != 0 {
			continue
		}
		i := s.id
		if i == p.myPart && cfg.mode == modeVerify && round < cfg.verifyAt+2 {
			continue // complaints may still be en route
		}
		total, has := s.agg, s.aggHas
		if i == p.myPart {
			if has {
				total = cfg.f(total, p.ownVal)
			} else {
				total = p.ownVal
				has = true
			}
		}
		s.aggSent = true
		if s.via >= 0 {
			if has {
				p.enqueue(s.via, s, congest.Message{Kind: kAgg, A: i, B: total.A, C: total.B})
			} else {
				p.enqueue(s.via, s, congest.Message{Kind: kAggEmpty, A: i})
			}
		} else {
			// Origin: total = f(P_i); distribute it.
			p.gotResult = true
			p.result = total
			p.forwardResult(s, total)
		}
	}
}

// step runs one round of this node's router record.
func (p *routerProc) step(ctx *congest.Ctx) bool {
	cfg := p.cfg
	round := ctx.Round()
	if !p.started && round >= p.delay {
		p.started = true
		p.startActions()
	}
	ctx.ForRecv(func(in congest.Incoming) {
		p.handle(in)
	})
	if cfg.mode == modeVerify && round == cfg.verifyAt && !p.complained {
		p.complained = true
		if s := p.part(p.myPart); !s.informed {
			for q, ok := range cfg.in.SameRow(p.v) {
				if ok {
					p.enqueue(q, s, congest.Message{Kind: kComplain, A: p.myPart})
				}
			}
		}
	}
	p.tryComplete(round)
	if p.wake <= round {
		if next := p.nextDuty(round); next > round {
			p.wake = next
			ctx.WakeAt(next)
		}
	}
	return p.flush(ctx)
}

// nextDuty returns the first round after round at which the node must act
// on the clock, or 0 if it has no clock duty left: its part's start at
// delay; in verify mode the complaint at verifyAt and, at verifyAt+2, the
// first round its own part's aggregate may seal (complaints still en
// route before then). The node sleeps until then unless messages or
// queued sends wake it, and its step at verifyAt+2 is the last one the
// schedule forces, so the phase lasts exactly as long as if it stepped
// every round.
func (p *routerProc) nextDuty(round int64) int64 {
	if !p.started {
		return p.delay
	}
	if at := p.cfg.verifyAt; p.cfg.mode == modeVerify {
		if round < at {
			return at
		}
		if round < at+2 {
			return at + 2
		}
	}
	return 0
}

// runRouter executes one router phase over the whole network on the
// Engine's recycled routerRun and returns it for result extraction; the
// records stay valid until the Engine's next router run.
func runRouter(cfg *routerConfig, name string, budget int64) (*routerRun, error) {
	e := cfg.eng
	r := &e.router
	rows := e.Net.Graph().CSR().RowStart
	if len(r.nodes) != e.N {
		r.nodes = make([]routerProc, e.N)
		r.queues = make([][]queued, rows[e.N])
	}
	for v := range r.nodes {
		r.nodes[v].reset(cfg, v, r.queues[rows[v]:rows[v+1]:rows[v+1]])
	}
	_, err := e.Net.RunNodes(name, r, budget)
	return r, err
}
