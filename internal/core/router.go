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
// Node state is flat and pointer-free below the per-node record: one
// partState record per part the node has heard of, in a slice sorted by
// part ID; the ports a part's token was offered on, its beacon ports and
// its broadcast-tree children in one linked list per part, kept in the
// node's link array; and one circular FIFO list per port threaded through
// the node's pool of queue entries, with the busy ports in an ascending
// list. The sub-part tree and exit ports spread floods on are not stored:
// they come from the division's forest and rows when the node adopts its
// own part's token. A step costs O(busy ports + known parts) —
// flush walks the busy list, tryComplete the record slice — in ascending
// (port, part ID) order, the order the message schedule and so every round
// and message count depend on. The pools are per node, not shared, because
// the parallel engine steps distinct nodes concurrently and a node's step
// writes only its own record and its own ports' queue links. The Engine
// recycles the whole run across router runs; between runs it holds no
// pointer to the last run's configuration, values or Infra.

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

// queued is one message waiting on a port: an entry of its node's pool,
// linked into the port's circular FIFO list or into the pool's free list.
// It stores the message's kind and part; an AGG or RESULT message's value
// is the part record's agg, read when the message is sent (see
// routerRun.send).
type queued struct {
	part int64
	kind int32
	pri1 int32 // block-root depth; with part the deterministic key
	next int32 // next entry in the same list
}

// portLink is one entry of a part's port list: a port tagged with what it
// is to the part (linkOffered, linkBeacon or linkChild).
type portLink struct {
	tagged int32 // port<<2 | tag
	next   int32 // next entry of the part's list; -1 ends it
}

// Port-list tags.
const (
	linkOffered int32 = iota // the token was offered on the port
	linkBeacon               // a beacon arrived on the port
	linkChild                // the port's neighbor adopted the token from us
)

// partState is everything one node knows about one part: its token, its
// beacon paths, and its convergecast. A node holds one record per part it
// has heard of, in routerNode.parts.
type partState struct {
	id  int64
	agg congest.Val // the subtree's aggregate; from seal on the value sent up, then the result

	pri1        int32 // Meta root depth: the deterministic discipline key
	via         int32 // first-receipt port; -1 at the origin
	pendingAcks int32
	aggWait     int32
	head, tail  int32 // the part's port list in routerNode.links; -1: empty

	informed   bool
	beaconFwd  bool
	aggHas     bool
	aggSent    bool
	resultSeen bool
}

// routerRun is the router phase's shared state machine: one backing array
// of per-node records plus one queue link per port, stepped through the
// node index — no per-node proc objects or closures. The Engine keeps one
// routerRun and recycles it, with every per-node array, across router runs.
type routerRun struct {
	cfg   *routerConfig // the running phase's; nil between runs
	rows  []int32       // the graph's CSR row starts: port q of v is half-edge rows[v]+q
	nodes []routerNode
	last  []int32 // per half-edge: the tail of the port's circular queue in its node's pool (its next is the head); -1: empty
}

// routerNode is one node's router state (a record in routerRun's backing
// array, not an individually allocated proc).
type routerNode struct {
	parts []partState // every part heard of, ascending ID
	pool  []queued    // the node's queue entries, live or free
	links []portLink  // the node's part port lists
	busy  []int32     // ports with a non-empty queue, ascending

	delay int64 // the node's part start delay
	wake  int64 // the clock duty last asked for with WakeAt (0: none yet)
	free  int32 // head of pool's free list; -1: none

	started    bool
	complained bool // verify mode: the complaint round has been served
	flagged    bool // verify mode: a same-part neighbor complained
}

// reset empties one routerRun record in place for a new run, keeping the
// capacity of its arrays.
func (p *routerNode) reset(delay int64) {
	*p = routerNode{
		parts: p.parts[:0],
		pool:  p.pool[:0],
		links: p.links[:0],
		busy:  p.busy[:0],
		delay: delay,
		free:  -1,
	}
}

// search returns where node v's record for part i is, or would be
// inserted, in its ascending record slice, and whether it exists.
func (p *routerNode) search(i int64) (int, bool) {
	lo, hi := 0, len(p.parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.parts[mid].id < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.parts) && p.parts[lo].id == i
}

// part returns node v's record for part i, creating it on first mention.
// The pointer is valid until the next call creates a record.
func (r *routerRun) part(v int, i int64) *partState {
	p := &r.nodes[v]
	lo, found := p.search(i)
	if found {
		return &p.parts[lo]
	}
	p.parts = slices.Insert(p.parts, lo, partState{id: i, head: -1, tail: -1})
	s := &p.parts[lo]
	if r.cfg.det {
		d, _ := r.cfg.sc.RootDepth(v, i)
		s.pri1 = int32(d)
	}
	return s
}

// link appends port q with tag to part s's port list at node v.
func (r *routerRun) link(v int, s *partState, q int, tag int32) {
	p := &r.nodes[v]
	k := int32(len(p.links))
	p.links = append(p.links, portLink{tagged: int32(q)<<2 | tag, next: -1})
	if s.head < 0 {
		s.head = k
	} else {
		p.links[s.tail].next = k
	}
	s.tail = k
}

// linked reports whether port q carries tag in part s's port list at v.
func (r *routerRun) linked(v int, s *partState, q int, tag int32) bool {
	links := r.nodes[v].links
	want := int32(q)<<2 | tag
	for k := s.head; k >= 0; k = links[k].next {
		if links[k].tagged == want {
			return true
		}
	}
	return false
}

// enqueue schedules a message of kind on port of node v for part s, with
// the part's discipline key, at the tail of the port's list.
func (r *routerRun) enqueue(v, port int, s *partState, kind int32) {
	p := &r.nodes[v]
	h := int(r.rows[v]) + port
	k := p.free
	if k >= 0 {
		p.free = p.pool[k].next
	} else {
		k = int32(len(p.pool))
		p.pool = append(p.pool, queued{})
	}
	e := &p.pool[k]
	*e = queued{part: s.id, kind: kind, pri1: s.pri1, next: k}
	if l := r.last[h]; l < 0 {
		b, _ := slices.BinarySearch(p.busy, int32(port))
		p.busy = slices.Insert(p.busy, b, int32(port))
	} else {
		e.next = p.pool[l].next
		p.pool[l].next = k
	}
	r.last[h] = k
}

// flush sends at most one queued message per busy port (ascending), picking
// by discipline, and reports whether any queue still has work. A port's
// list is in arrival order, so the deterministic rule's last tie-break
// (arrival) is the first minimum met on the walk.
func (r *routerRun) flush(ctx *congest.Ctx, v int) bool {
	p := &r.nodes[v]
	det := r.cfg.det
	base := int(r.rows[v])
	keep := p.busy[:0]
	for _, port := range p.busy {
		h := base + int(port)
		if ctx.CanSend(int(port)) {
			l := r.last[h]
			best, prev := p.pool[l].next, l
			if det {
				for k, kPrev := p.pool[best].next, best; kPrev != l; k, kPrev = p.pool[k].next, k {
					if lessKey(&p.pool[k], &p.pool[best]) {
						best, prev = k, kPrev
					}
				}
			}
			e := &p.pool[best]
			r.send(ctx, v, int(port), e)
			switch {
			case best == prev:
				r.last[h] = -1 // the port's only entry
			case best == l:
				p.pool[prev].next = e.next
				r.last[h] = prev
			default:
				p.pool[prev].next = e.next
			}
			e.next = p.free
			p.free = best
		}
		if r.last[h] >= 0 {
			keep = append(keep, port)
		}
	}
	p.busy = keep
	return len(keep) > 0
}

// send transmits queue entry e on port of node v. An AGG or RESULT carries
// its part record's agg: a record's agg is final from the round it seals
// (the AGG it enqueues) until its RESULT arrives, which the origin can
// send only after that AGG reached it; from then on it is the result, the
// value of every RESULT the record enqueues.
func (r *routerRun) send(ctx *congest.Ctx, v, port int, e *queued) {
	m := congest.Message{Kind: e.kind, A: e.part}
	if e.kind == kAgg || e.kind == kResult {
		p := &r.nodes[v]
		k, _ := p.search(e.part)
		m.B, m.C = p.parts[k].agg.A, p.parts[k].agg.B
	}
	ctx.Send(port, m)
}

// lessKey orders two entries of one port by the deterministic discipline:
// (block-root depth, part ID).
func lessKey(a, b *queued) bool {
	if a.pri1 != b.pri1 {
		return a.pri1 < b.pri1
	}
	return a.part < b.part
}

// sendToken offers part s's token on port q of node v at most once.
func (r *routerRun) sendToken(v int, s *partState, q int) {
	if r.linked(v, s, q, linkOffered) {
		return
	}
	r.link(v, s, q, linkOffered)
	s.pendingAcks++
	r.enqueue(v, q, s, kToken)
}

// spread performs the forwarding a node owes after adopting part s's token:
// members flood their sub-part tree (parent, then children) and exit edges
// (ascending; Algorithm 1 lines 13-18); nodes on the part's block relay
// rootward and serve beacon paths. Every offer is checked: a division
// built under faults need not keep its tree ports inside the sub-part.
func (r *routerRun) spread(v int, s *partState) {
	cfg := r.cfg
	i, via := s.id, int(s.via)
	if i == cfg.in.LeaderID[v] {
		div := cfg.div
		if pp := div.ParentPort[v]; pp >= 0 && pp != via {
			r.sendToken(v, s, pp)
		}
		for _, q := range div.ChildPorts[v] {
			if q != via {
				r.sendToken(v, s, q)
			}
		}
		sub := div.SameSubRow(v)
		for q, ok := range cfg.in.SameRow(v) {
			if ok && !sub[q] && q != via {
				r.sendToken(v, s, q)
			}
		}
	}
	if cfg.sc.OnBlock(v, i) {
		if cfg.sc.HasUp(v, i) {
			if pp := cfg.eng.Tree.ParentPort[v]; pp >= 0 && pp != via {
				r.sendToken(v, s, pp)
			}
		}
		links := r.nodes[v].links
		for k := s.head; k >= 0; k = links[k].next {
			if q := int(links[k].tagged >> 2); links[k].tagged&3 == linkBeacon && q != via {
				r.sendToken(v, s, q)
				links = r.nodes[v].links // sendToken may grow the link array
			}
		}
	}
}

// startActions fires once the part's delay expires: the leader originates
// its token; representatives of shortcut-using sub-parts lay beacons.
func (r *routerRun) startActions(v int) {
	cfg := r.cfg
	myPart := cfg.in.LeaderID[v]
	s := r.part(v, myPart)
	if cfg.in.IsLeader[v] {
		s.informed = true
		s.via = -1
		r.spread(v, s)
	}
	if cfg.div.IsRep[v] && !cfg.covered[v] &&
		cfg.sc.HasUp(v, myPart) && !s.beaconFwd {
		if pp := cfg.eng.Tree.ParentPort[v]; pp >= 0 {
			s.beaconFwd = true
			r.enqueue(v, pp, s, kBeacon)
		}
	}
}

func (r *routerRun) handle(v int, in congest.Incoming) {
	cfg := r.cfg
	i := in.Msg.A
	if in.Msg.Kind == kComplain {
		// A same-part neighbor did not receive the token (verify mode):
		// record the complaint in this node's contributed bit.
		r.nodes[v].flagged = true
		return
	}
	s := r.part(v, i)
	switch in.Msg.Kind {
	case kToken:
		if s.informed {
			r.enqueue(v, in.Port, s, kAckDecline)
			return
		}
		s.informed = true
		s.via = int32(in.Port)
		r.enqueue(v, in.Port, s, kAckAdopt)
		r.spread(v, s)
	case kBeacon:
		if !r.linked(v, s, in.Port, linkBeacon) {
			r.link(v, s, in.Port, linkBeacon)
		}
		// Serve the beacon now if the token already passed through and the
		// aggregate has not been sealed (a post-seal adoption would orphan
		// the new child's aggregate; such terminals are reached by the
		// intra-part flood instead).
		if s.informed && !s.aggSent {
			r.sendToken(v, s, in.Port)
		}
		if cfg.sc.HasUp(v, i) && !s.beaconFwd {
			if pp := cfg.eng.Tree.ParentPort[v]; pp >= 0 {
				s.beaconFwd = true
				r.enqueue(v, pp, s, kBeacon)
			}
		}
	case kAckAdopt:
		s.pendingAcks--
		r.link(v, s, in.Port, linkChild)
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
		r.forwardResult(v, s, congest.Val{A: in.Msg.B, B: in.Msg.C})
	}
}

// forwardResult records part s's result at node v and pushes it down the
// adopted subtree, to the children in adoption order, on its first
// receipt only.
func (r *routerRun) forwardResult(v int, s *partState, val congest.Val) {
	if s.resultSeen {
		return
	}
	s.resultSeen = true
	s.agg = val
	links := r.nodes[v].links
	for k := s.head; k >= 0; k = links[k].next {
		if links[k].tagged&3 == linkChild {
			r.enqueue(v, int(links[k].tagged>>2), s, kResult)
		}
	}
}

// result returns the value node v received for its own part myPart, and
// whether it received one.
func (r *routerRun) result(v int, myPart int64) (congest.Val, bool) {
	p := &r.nodes[v]
	k, found := p.search(myPart)
	if !found || !p.parts[k].resultSeen {
		return congest.Val{}, false
	}
	return p.parts[k].agg, true
}

// ownVal is node v's own contribution to its part's aggregate: its input
// value when solving, its complaint bit when verifying.
func (r *routerRun) ownVal(v int) congest.Val {
	if r.cfg.mode == modeSolve {
		return r.cfg.vals[v]
	}
	if r.nodes[v].flagged {
		return congest.Val{A: 1}
	}
	return congest.Val{}
}

// tryComplete seals aggregates whose subtrees have fully reported: interior
// nodes send AGG up their adoption port; the origin (leader) computes the
// final value and starts the RESULT broadcast. Parts are visited in
// ascending ID order, the order of the record slice.
func (r *routerRun) tryComplete(v int, round int64) {
	cfg := r.cfg
	myPart := cfg.in.LeaderID[v]
	p := &r.nodes[v]
	for k := range p.parts {
		s := &p.parts[k]
		if !s.informed || s.aggSent || s.pendingAcks != 0 || s.aggWait != 0 {
			continue
		}
		i := s.id
		if i == myPart && cfg.mode == modeVerify && round < cfg.verifyAt+2 {
			continue // complaints may still be en route
		}
		total, has := s.agg, s.aggHas
		if i == myPart {
			if has {
				total = cfg.f(total, r.ownVal(v))
			} else {
				total = r.ownVal(v)
				has = true
			}
		}
		s.aggSent = true
		s.agg = total
		if s.via >= 0 {
			if has {
				r.enqueue(v, int(s.via), s, kAgg)
			} else {
				r.enqueue(v, int(s.via), s, kAggEmpty)
			}
		} else {
			// Origin: total = f(P_i); distribute it.
			r.forwardResult(v, s, total)
		}
	}
}

// Step runs one round of node v's router record (congest.NodeProc).
func (r *routerRun) Step(ctx *congest.Ctx, v int) bool {
	cfg := r.cfg
	p := &r.nodes[v]
	round := ctx.Round()
	if !p.started && round >= p.delay {
		p.started = true
		r.startActions(v)
	}
	ctx.ForRecv(func(in congest.Incoming) {
		r.handle(v, in)
	})
	if cfg.mode == modeVerify && round == cfg.verifyAt && !p.complained {
		p.complained = true
		myPart := cfg.in.LeaderID[v]
		if s := r.part(v, myPart); !s.informed {
			for q, ok := range cfg.in.SameRow(v) {
				if ok {
					r.enqueue(v, q, s, kComplain)
				}
			}
		}
	}
	r.tryComplete(v, round)
	if p.wake <= round {
		if next := r.nextDuty(v, round); next > round {
			p.wake = next
			ctx.WakeAt(next)
		}
	}
	return r.flush(ctx, v)
}

// nextDuty returns the first round after round at which node v must act on
// the clock, or 0 if it has no clock duty left: its part's start at
// delay; in verify mode the complaint at verifyAt and, at verifyAt+2, the
// first round its own part's aggregate may seal (complaints still en
// route before then). The node sleeps until then unless messages or
// queued sends wake it, and its step at verifyAt+2 is the last one the
// schedule forces, so the phase lasts exactly as long as if it stepped
// every round.
func (r *routerRun) nextDuty(v int, round int64) int64 {
	if p := &r.nodes[v]; !p.started {
		return p.delay
	}
	if at := r.cfg.verifyAt; r.cfg.mode == modeVerify {
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
// records stay valid until the Engine's next router run. The run drops
// cfg when the phase ends, on every exit path, so the Engine does not
// keep the caller's values or Infra reachable.
func runRouter(cfg *routerConfig, name string, budget int64) (*routerRun, error) {
	e := cfg.eng
	r := &e.router
	r.rows = e.Net.Graph().CSR().RowStart
	if len(r.nodes) != e.N {
		r.nodes = make([]routerNode, e.N)
		r.last = make([]int32, r.rows[e.N])
	}
	for v := range r.nodes {
		r.nodes[v].reset(cfg.partDelay(cfg.in.LeaderID[v]))
	}
	for h := range r.last {
		r.last[h] = -1
	}
	r.cfg = cfg
	defer func() { r.cfg = nil }()
	_, err := e.Net.RunNodes(name, r, budget)
	return r, err
}
