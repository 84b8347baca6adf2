package core

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
	"shortcutpa/internal/subpart"
)

// boruvka.go is the loop of star joinings (Definition 6.1) that both the
// Borůvka MST (Corollary 1.3, internal/mst) and Algorithm 9's leaderless
// coarsening (leaderless.go) are built from. Groups start as singletons,
// every node its own leader. Each phase, every group picks one outgoing
// edge with a PA-min, a star joining designates joiners, and joiners adopt
// the leader across their chosen edge; the loop ends when no group has an
// edge left to pick.
//
// A randomized star joining merges a constant fraction of the groups only
// w.h.p., so the phase count has a tail. Phases 0 … 2·log2(n)+8 join in the
// engine's mode; from phase 2·log2(n)+9 on, the loop uses Algorithm 5's
// deterministic joining. Only a second block of as many phases is an
// error, and failing it means a bug, not unlucky coin flips.

// Joining configures one use of the Borůvka loop (Engine.Boruvka).
type Joining struct {
	// Pick returns node v's best edge out of its group as a value and the
	// edge's port, or port -1 when v has none. group is v's same-group row,
	// indexed by port. A group's chosen edge is its congest.MinPair-least
	// pick, so picks must be unique within a group.
	Pick func(v int, group []bool) (congest.Val, int)
	// Join, when set, is called engine-side for every joiner endpoint v and
	// its chosen port once the phase's star joining is done.
	Join func(v, port int)
	// Opts selects the per-phase aggregations' infrastructure ablations.
	Opts InfraOptions
}

// LeastEdge returns the Borůvka MST pick for Joining.Pick: node v's least
// edge out of its group under congest.MinPair of Val{A: key(edge), B: edge}.
// The edge index breaks ties on key, so picks are unique and the MST is the
// unique one under (key, edge index).
func LeastEdge(g *graph.Graph, key func(edge int) int64) func(v int, group []bool) (congest.Val, int) {
	return func(v int, group []bool) (congest.Val, int) {
		best, port := congest.Val{}, -1
		g.ForPorts(v, func(q, _, edge int) bool {
			val := congest.Val{A: key(edge), B: int64(edge)}
			if !group[q] && (port < 0 || congest.MinPair(val, best) == val) {
				best, port = val, q
			}
			return true
		})
		return best, port
	}
}

// Boruvka runs star-joining phases until no group has an outgoing pick. It
// returns every node's final group leader ID and the number of phases that
// ran a joining.
func (e *Engine) Boruvka(j Joining) (leader []int64, phases int, err error) {
	n := e.N
	g := e.Net.Graph()
	csr := g.CSR()

	leader = make([]int64, n)
	sameGroup := make([]bool, len(csr.PortTo)) // flat per-port group flags
	for v := 0; v < n; v++ {
		leader[v] = e.Net.ID(v)
	}

	// Phase-lifetime scratch, reused across phases (every entry is
	// rewritten per phase).
	isLeader := make([]bool, n)
	pick := make([]congest.Val, n)
	chosen := make([]int, n)
	reply := make([]congest.Val, n) // AdoptAcross's scratch
	gi := &part.Info{
		Row:      csr.RowStart,
		SamePart: sameGroup,
		LeaderID: leader,
		IsLeader: isLeader,
	}

	randPhases := 2*log2(n) + 9 // phases joining in the engine's mode
	for phase := 0; ; phase++ {
		hasAny := false
		for v := 0; v < n; v++ {
			isLeader[v] = leader[v] == e.Net.ID(v)
			pick[v], chosen[v] = j.Pick(v, gi.SameRow(v))
			if chosen[v] < 0 {
				pick[v] = congest.Val{A: congest.PosInf}
			} else {
				hasAny = true
			}
		}
		if !hasAny {
			return leader, phase, nil // every group is complete
		}
		if phase >= 2*randPhases {
			return nil, phase, fmt.Errorf("core: Borůvka did not converge in %d phases", phase)
		}

		// Each group's minimum pick is its chosen edge; the node that
		// picked it is the endpoint.
		agg := e.Aggregator(gi, j.Opts)
		mins, err := agg.Aggregate(pick, congest.MinPair)
		if err != nil {
			return nil, phase, fmt.Errorf("core: Borůvka phase %d: %w", phase, err)
		}
		for v := 0; v < n; v++ {
			if pick[v] != mins[v] {
				chosen[v] = -1
			}
		}

		det := e.Mode == Deterministic || phase >= randPhases
		sj, err := subpart.StarJoin(e.Net, leader, chosen, agg, det, int64(phase))
		if err != nil {
			return nil, phase, fmt.Errorf("core: Borůvka phase %d star joining: %w", phase, err)
		}
		for v := 0; j.Join != nil && v < n; v++ {
			if sj.Role[v] == subpart.RoleJoiner && chosen[v] >= 0 {
				j.Join(v, chosen[v])
			}
		}
		// Joiners adopt the receiver's leader, then every node refreshes
		// its same-group port flags.
		if err := subpart.AdoptAcross(e.Net, "core/adopt", chosen, sj, leader, agg, reply); err != nil {
			return nil, phase, fmt.Errorf("core: Borůvka phase %d adopt: %w", phase, err)
		}
		if err := e.exchangeLeaderIDs(leader, sameGroup); err != nil {
			return nil, phase, fmt.Errorf("core: Borůvka phase %d exchange: %w", phase, err)
		}
	}
}

// kGroupX is the group-exchange message kind.
const kGroupX int32 = 122

// exchangeLeaderIDs refreshes same-group port flags from a one-round
// leader-ID exchange on every edge. sameGroup is flat over the CSR offsets
// (the part.Info.SamePart shape); every entry is rewritten.
func (e *Engine) exchangeLeaderIDs(leader []int64, sameGroup []bool) error {
	p := &groupExchangeProc{rs: e.Net.Graph().CSR().RowStart, leader: leader, sameGroup: sameGroup}
	_, err := e.Net.RunNodes("core/group-exchange", p, e.Net.RoundCap())
	return err
}

// groupExchangeProc broadcasts leader IDs once and records same-group flags
// into the flat CSR-offset array.
type groupExchangeProc struct {
	rs        []int32
	leader    []int64
	sameGroup []bool
}

// Step implements congest.NodeProc.
func (p *groupExchangeProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 {
		ctx.Broadcast(congest.Message{Kind: kGroupX, A: p.leader[v]})
	}
	row := p.sameGroup[p.rs[v]:p.rs[v+1]]
	ctx.ForRecv(func(m congest.Incoming) {
		row[m.Port] = m.Msg.A == p.leader[v]
	})
	return false
}

func log2(n int) int {
	k := 0
	for s := 1; s < n; s *= 2 {
		k++
	}
	return k
}
