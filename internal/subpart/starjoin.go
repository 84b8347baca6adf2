package subpart

import "shortcutpa/internal/congest"

// starjoin.go implements star joinings (Definition 6.1 / Algorithm 5).
// Given one chosen outgoing edge per part, a star joining designates a
// constant fraction of the parts as joiners, each knowing an edge into a
// receiver part, such that merges form stars (joiners attach directly to
// receivers, bounding the merged diameter).
//
// The deterministic version is Algorithm 5: parts with super-graph
// in-degree >= 2 become receivers and their pointers joiners; the residual
// super-graph has in- and out-degree <= 1 (disjoint paths and cycles) and
// is 3-colored by simulating Cole-Vishkin [4] on part leaders, after which
// each color class becomes receivers in turn. The randomized version uses
// leader coin flips (tails pointing at heads join), merging a constant
// fraction in expectation — the paper's "easily accomplished with random
// coin flips".
//
// All part-internal coordination goes through an Agg service (Lemma 6.3's
// algorithm A): Algorithm 6 passes cheap intra-sub-part aggregation, while
// Algorithm 9 and Borůvka pass full PA.

// Agg is the part-wise aggregation service star joining coordinates with:
// one call makes every node learn f over its current part's values.
type Agg interface {
	Aggregate(vals []congest.Val, f congest.Combine) ([]congest.Val, error)
}

// Role is a part's outcome in a star joining.
type Role int8

// Roles. RoleNone parts neither merge nor receive this round.
const (
	RoleNone Role = iota
	RoleReceiver
	RoleJoiner
)

// StarJoinResult reports, per node, its part's role. Members of joiner
// parts already know their chosen edge (it was the input).
type StarJoinResult struct {
	Role []Role
}

// Message kinds for the cross-edge exchanges.
const (
	kindPoint int32 = iota + 60
	kindForward
	kindBack
	kindAdoptAsk
	kindAdoptID
)

// exchange state per node for the cross-edge protocol, plus the
// call-lifetime scratch the joining's O(log* n) exchange iterations reuse
// (each helper fully rewrites every entry before the round that reads it,
// so reuse cannot leak state between iterations).
type joinState struct {
	chosenPort []int

	// pointedPorts[v] = ports over which some part's chosen edge points at v.
	pointedPorts [][]int
	// lastBack[v] = latest (color, flags) received over the chosen port.
	backColor []int64
	backFlags []int64
	havePred  []bool
	predColor []int64 // latest pred color forwarded to v over a pointed port

	// Reused per-iteration buffers (see announce / cvStep / reduceColor).
	color   []int64
	flags   []int64
	sendFwd []bool
	valBuf  []congest.Val
}

// flag bits carried in kindBack replies.
const (
	flagActive   int64 = 1 << 0
	flagReceiver int64 = 1 << 1
)

// StarJoin computes a star joining over the current partition, of which it
// needs only each part's leader: leaderID[v] is the ID of v's part leader
// (v leads when leaderID[v] == net.ID(v)), and every other part-internal
// step goes through agg. chosenPort[v] is the port of the part's chosen
// outgoing edge if v is its endpoint, else -1 (at most one endpoint per
// part; parts without a chosen edge never join but may receive). det
// selects Algorithm 5; otherwise coin flips. nonce differentiates the
// randomness of repeated joinings (callers pass the coarsening level).
func StarJoin(net *congest.Network, leaderID []int64, chosenPort []int, agg Agg, det bool,
	nonce int64) (*StarJoinResult, error) {
	n := net.N()
	st := &joinState{
		chosenPort:   chosenPort,
		pointedPorts: make([][]int, n),
		backColor:    make([]int64, n),
		backFlags:    make([]int64, n),
		havePred:     make([]bool, n),
		predColor:    make([]int64, n),
		color:        make([]int64, n),
		flags:        make([]int64, n),
		sendFwd:      make([]bool, n),
		valBuf:       make([]congest.Val, n),
	}
	res := &StarJoinResult{Role: make([]Role, n)}

	// Stage 0: endpoints announce the chosen edges (POINT).
	if err := st.pointRound(net); err != nil {
		return nil, err
	}

	// Stage 1: in-degree count; delta >= 2 parts become receivers.
	for v := 0; v < n; v++ {
		st.valBuf[v] = congest.Val{A: int64(len(st.pointedPorts[v]))}
	}
	degs, err := agg.Aggregate(st.valBuf, congest.SumPair)
	if err != nil {
		return nil, err
	}
	// A part without a chosen edge can never join, only be joined: make it
	// a permanent receiver so parts pointing at it are not starved (the
	// Algorithm 6 case where incomplete sub-parts point at complete ones).
	for v := 0; v < n; v++ {
		st.valBuf[v] = congest.Val{}
		if chosenPort[v] >= 0 {
			st.valBuf[v] = congest.Val{A: 1}
		}
	}
	hasEdge, err := agg.Aggregate(st.valBuf, congest.OrPair)
	if err != nil {
		return nil, err
	}
	receiver := make([]bool, n)
	for v := 0; v < n; v++ {
		receiver[v] = degs[v].A >= 2 || hasEdge[v].A == 0
	}

	if det {
		if err := st.deterministicResidue(net, leaderID, agg, receiver, res); err != nil {
			return nil, err
		}
	} else {
		if err := st.randomizedFlips(net, leaderID, agg, receiver, res, nonce); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AdoptAcross completes a star joining's merges, for Algorithm 6 and the
// Borůvka loop alike: every joiner endpoint asks across its chosen edge for
// the receiver's entry of ids (a query-and-reply run logged as phase), one
// MaxPair aggregation over agg spreads the reply through the joiner's part,
// and every joiner node overwrites its ids entry with it. ids holds
// non-negative node IDs; receivers' entries are only read. reply is the
// caller's n-entry scratch, fully rewritten, so a merge loop keeps one
// across its iterations.
func AdoptAcross(net *congest.Network, phase string, chosenPort []int, res *StarJoinResult,
	ids []int64, agg Agg, reply []congest.Val) error {
	n := net.N()
	for v := range reply {
		reply[v] = congest.Val{A: congest.NegInf}
	}
	p := &askAcrossProc{chosenPort: chosenPort, res: res, ids: ids, reply: reply}
	if _, err := net.RunNodes(phase, p, net.RoundCap()); err != nil {
		return err
	}
	got, err := agg.Aggregate(reply, congest.MaxPair)
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if res.Role[v] == RoleJoiner && got[v].A > congest.NegInf {
			ids[v] = got[v].A
		}
	}
	return nil
}

// askAcrossProc: joiner endpoints ask over the chosen edge, the far side
// replies with its ids entry; replies land in the flat reply array.
type askAcrossProc struct {
	chosenPort []int
	res        *StarJoinResult
	ids        []int64
	reply      []congest.Val
}

// Step implements congest.NodeProc.
func (p *askAcrossProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && p.res.Role[v] == RoleJoiner && p.chosenPort[v] >= 0 {
		ctx.Send(p.chosenPort[v], congest.Message{Kind: kindAdoptAsk})
	}
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindAdoptAsk:
			ctx.Send(m.Port, congest.Message{Kind: kindAdoptID, A: p.ids[v]})
		case kindAdoptID:
			p.reply[v] = congest.Val{A: m.Msg.A}
		}
	})
	return false
}

// pointRound: each chosen endpoint sends POINT over its chosen port; the
// far endpoint records the port.
func (st *joinState) pointRound(net *congest.Network) error {
	_, err := net.RunNodes("subpart/point", (*pointProc)(st), net.RoundCap())
	return err
}

// pointProc is joinState viewed as the POINT round's shared state machine.
type pointProc joinState

// Step implements congest.NodeProc.
func (p *pointProc) Step(ctx *congest.Ctx, v int) bool {
	st := (*joinState)(p)
	if ctx.Round() == 0 && st.chosenPort[v] >= 0 {
		ctx.Send(st.chosenPort[v], congest.Message{Kind: kindPoint})
	}
	ctx.ForRecv(func(m congest.Incoming) {
		st.pointedPorts[v] = append(st.pointedPorts[v], m.Port)
	})
	return false
}

// exchangeRound: active endpoints forward (FWD, myColor, myFlags) over the
// chosen port; every pointed node replies (BACK, partColor, partFlags) over
// the ports that forwarded this round. After the round, each endpoint
// holds its successor part's color/flags, and each pointed node the
// predecessor's. Reads st.color/st.flags/st.sendFwd, which the caller must
// have fully (re)written.
func (st *joinState) exchangeRound(net *congest.Network) error {
	n := net.N()
	// Clear stale exchange results: replies arrive only for this round's
	// forwards.
	for v := 0; v < n; v++ {
		st.backColor[v], st.backFlags[v] = 0, 0
		st.havePred[v], st.predColor[v] = false, 0
	}
	_, err := net.RunNodes("subpart/exchange", (*exchangeProc)(st), net.RoundCap())
	return err
}

// exchangeProc is joinState viewed as the FWD/BACK exchange's shared state
// machine.
type exchangeProc joinState

// Step implements congest.NodeProc.
func (p *exchangeProc) Step(ctx *congest.Ctx, v int) bool {
	st := (*joinState)(p)
	if ctx.Round() == 0 && st.chosenPort[v] >= 0 && st.sendFwd[v] {
		ctx.Send(st.chosenPort[v], congest.Message{Kind: kindForward, A: st.color[v], B: st.flags[v]})
	}
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindForward:
			st.havePred[v] = true
			st.predColor[v] = m.Msg.A
			ctx.Send(m.Port, congest.Message{Kind: kindBack, A: st.color[v], B: st.flags[v]})
		case kindBack:
			st.backColor[v] = m.Msg.A
			st.backFlags[v] = m.Msg.B
		}
	})
	return false
}

// spreadFromEndpoint distributes a value known at the chosen endpoint to the
// whole part via one aggregation (everyone else contributes the identity).
func (st *joinState) spreadFromEndpoint(agg Agg, n int, has func(v int) bool, val func(v int) congest.Val) ([]congest.Val, error) {
	for v := 0; v < n; v++ {
		if has(v) {
			st.valBuf[v] = val(v)
		} else {
			st.valBuf[v] = congest.Val{A: congest.NegInf}
		}
	}
	return agg.Aggregate(st.valBuf, congest.MaxPair)
}

// randomizedFlips implements the coin-flip star joining: every part leader
// flips; tails parts whose successor is heads (and not already a joiner
// target inconsistency) join; heads parts receive.
func (st *joinState) randomizedFlips(net *congest.Network, leaderID []int64, agg Agg, recvByDeg []bool,
	res *StarJoinResult, nonce int64) error {
	n := net.N()
	// Leader flips ride an aggregation to all members.
	for v := 0; v < n; v++ {
		if leaderID[v] == net.ID(v) {
			st.valBuf[v] = congest.Val{A: rngBit(net, v, nonce)}
		} else {
			st.valBuf[v] = congest.Val{A: -1}
		}
	}
	got, err := agg.Aggregate(st.valBuf, congest.MaxPair)
	if err != nil {
		return err
	}
	heads := make([]bool, n)
	for v := 0; v < n; v++ {
		heads[v] = got[v].A == 1
	}
	// Heads or high-in-degree parts receive; tails parts pointing at them
	// join.
	return st.announce(net, agg, res, func(v int) bool { return heads[v] || recvByDeg[v] })
}

// rngBit draws one reproducible bit per (node, nonce) from the network's
// seed; distinct nonces give fresh coins for repeated joinings. The full
// splitmix64 finalizer keeps distinct leaders' bits decorrelated (a partial
// finalizer provably is not: low product bits depend only on low input
// bits).
func rngBit(net *congest.Network, v int, nonce int64) int64 {
	x := uint64(net.Seed())*0x9E3779B97F4A7C15 + uint64(net.ID(v))*0xBF58476D1CE4E5B9 + uint64(nonce)*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 1)
}

// deterministicResidue is Algorithm 5 proper: receivers by in-degree, their
// pointers join; the residue (paths/cycles) is Cole-Vishkin 3-colored and
// color classes become receivers in turn.
func (st *joinState) deterministicResidue(net *congest.Network, leaderID []int64, agg Agg, recvByDeg []bool,
	res *StarJoinResult) error {
	n := net.N()
	active := make([]bool, n) // part still in the residual super-graph

	// Round A: receivers-by-degree announce; pointers at them join.
	if err := st.announce(net, agg, res, func(v int) bool { return recvByDeg[v] }); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		active[v] = res.Role[v] == RoleNone
		st.color[v] = leaderID[v] // initial CV colors: leader IDs
	}

	// Cole-Vishkin iterations until colors fit in {0..5}, then 6 -> 3.
	for iter := 0; iter < 8; iter++ {
		maxColor := int64(0)
		for v := 0; v < n; v++ {
			if active[v] && st.color[v] > maxColor {
				maxColor = st.color[v]
			}
		}
		if maxColor < 6 {
			break
		}
		if err := st.cvStep(net, agg, active); err != nil {
			return err
		}
	}
	for c := int64(5); c >= 3; c-- {
		if err := st.reduceColor(net, agg, active, c); err != nil {
			return err
		}
	}
	// Color classes 0,1,2 become receivers in turn; their pointers join.
	for c := int64(0); c <= 2; c++ {
		if err := st.colorPhase(net, agg, active, c, res); err != nil {
			return err
		}
	}
	return nil
}

// cvStep: one Cole-Vishkin color reduction across the residual super-graph.
// st.color is both input and output.
func (st *joinState) cvStep(net *congest.Network, agg Agg, active []bool) error {
	n := net.N()
	for v := 0; v < n; v++ {
		st.flags[v] = 0
		if active[v] {
			st.flags[v] = flagActive
		}
		st.sendFwd[v] = active[v]
	}
	if err := st.exchangeRound(net); err != nil {
		return err
	}
	// Endpoint now holds the successor's color (if the successor is still
	// active); compute the new color at the endpoint and spread it.
	newColors, err := st.spreadFromEndpoint(agg, n, func(v int) bool {
		return st.chosenPort[v] >= 0
	}, func(v int) congest.Val {
		succ := st.color[v] + 1 // pseudo-successor for dangling tails
		if st.backFlags[v]&flagActive != 0 {
			succ = st.backColor[v]
		}
		return congest.Val{A: cvCombine(st.color[v], succ)}
	})
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if active[v] && newColors[v].A >= 0 {
			st.color[v] = newColors[v].A
		}
	}
	return nil
}

// cvCombine is the Cole-Vishkin step: k = lowest bit where own and
// successor colors differ; new color = 2k + own bit at k.
func cvCombine(own, succ int64) int64 {
	diff := own ^ succ
	if diff == 0 {
		diff = 1 // colors equal can only happen for dangling pseudo-successors
	}
	k := int64(0)
	for diff&1 == 0 {
		diff >>= 1
		k++
	}
	return 2*k + ((own >> k) & 1)
}

// reduceColor removes color class c (c in {3,4,5}): parts colored c recolor
// to the smallest of {0,1,2} used by neither neighbor.
func (st *joinState) reduceColor(net *congest.Network, agg Agg, active []bool, c int64) error {
	n := net.N()
	for v := 0; v < n; v++ {
		st.flags[v] = 0
		if active[v] {
			st.flags[v] = flagActive
		}
		st.sendFwd[v] = active[v]
	}
	if err := st.exchangeRound(net); err != nil {
		return err
	}
	// Successor color sits at the endpoint; predecessor color sits at the
	// pointed node. Combine both through one aggregation (disjoint fields).
	for v := 0; v < n; v++ {
		val := congest.Val{A: congest.NegInf, B: congest.NegInf}
		if st.chosenPort[v] >= 0 && st.backFlags[v]&flagActive != 0 {
			val.A = st.backColor[v]
		}
		if st.havePred[v] {
			val.B = st.predColor[v]
		}
		st.valBuf[v] = val
	}
	got, err := agg.Aggregate(st.valBuf, congest.MaxPair)
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if !active[v] || st.color[v] != c {
			continue
		}
		succ, pred := got[v].A, got[v].B
		for cand := int64(0); cand <= 2; cand++ {
			if cand != succ && cand != pred {
				st.color[v] = cand
				break
			}
		}
	}
	return nil
}

// colorPhase makes color class c receivers and their active pointers
// joiners, removing both from the residue.
func (st *joinState) colorPhase(net *congest.Network, agg Agg, active []bool, c int64,
	res *StarJoinResult) error {
	if err := st.announce(net, agg, res, func(v int) bool { return active[v] && st.color[v] == c }); err != nil {
		return err
	}
	for v := range active {
		active[v] = active[v] && res.Role[v] == RoleNone
	}
	return nil
}

// announce is the step every joining stage ends with: parts with recv(v)
// become receivers and announce it over the chosen edges pointing at them,
// and parts without a role whose chosen edge points at an announcing part
// become its joiners. recv must be uniform within each part.
func (st *joinState) announce(net *congest.Network, agg Agg, res *StarJoinResult,
	recv func(v int) bool) error {
	n := net.N()
	for v := 0; v < n; v++ {
		st.flags[v] = 0
		if recv(v) {
			st.flags[v] = flagReceiver
		}
		st.sendFwd[v] = res.Role[v] == RoleNone && !recv(v) // only potential joiners ask
	}
	if err := st.exchangeRound(net); err != nil {
		return err
	}
	// The endpoint learned whether its target receives; spread part-wide.
	joins, err := st.spreadFromEndpoint(agg, n, func(v int) bool { return st.chosenPort[v] >= 0 }, func(v int) congest.Val {
		if st.sendFwd[v] && st.backFlags[v]&flagReceiver != 0 {
			return congest.Val{A: 1}
		}
		return congest.Val{A: 0}
	})
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		switch {
		case st.flags[v] == flagReceiver:
			res.Role[v] = RoleReceiver
		case joins[v].A == 1:
			res.Role[v] = RoleJoiner
		}
	}
	return nil
}
