package subpart

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// detdivision.go implements Algorithm 6: the deterministic sub-part
// division. It merges from the start state (newDivision): every node of an
// uncovered part is its own sub-part, and parts already covered by the
// radius-D BFS are single whole-part sub-parts, complete from the start.
// O(log n) rounds of star joinings merge sub-parts (incomplete sub-parts
// prefer incomplete targets in their part, falling back to complete ones),
// joiners re-root their spanning trees at the attachment point and adopt
// the receiver's representative, and a sub-part freezes ("complete") once
// it reaches D nodes. Lemma 6.4: the result is a division with Õ(|P_i|/D)
// sub-parts whose trees keep O(D) diameter (the paper's 4D argument).

// Deterministic-division message kinds.
const (
	kindAttach int32 = iota + 155
	kindFlip
	kindSubInfo
)

// DeterministicDivision computes the Algorithm 6 division. d is the
// completeness threshold (the paper's D).
func DeterministicDivision(net *congest.Network, in *part.Info, pb *part.BFS, d int64) (*Division, error) {
	n := net.N()
	div := newDivision(net, in, pb)
	complete := append([]bool(nil), pb.Covered...) // my sub-part is complete (frozen)

	fa := &tree.ForestAgg{Net: net, Forest: &div.Forest, Phase: "subpart/forest-agg"}
	maxIters := 2*log2ceil(n) + 8
	// Iteration-lifetime scratch, reused across the O(log n) merge rounds:
	// flat per-port neighbor knowledge (every entry is rewritten by each
	// exchange, since every node broadcasts), the candidate/choice arrays
	// (fully reinitialized below), AdoptAcross's reply buffer, and the
	// constant all-ones sizing input.
	csr := net.Graph().CSR()
	nbrRep := make([]int64, len(csr.PortTo))
	nbrComplete := make([]bool, len(csr.PortTo))
	cand := make([]congest.Val, n)
	candPort := make([]int, n)
	chosen := make([]int, n)
	reply := make([]congest.Val, n)
	ones := make([]congest.Val, n)
	for v := range ones {
		ones[v] = congest.Val{A: 1}
	}
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return nil, fmt.Errorf("subpart: Algorithm 6 did not converge in %d iterations", maxIters)
		}
		// Refresh neighbor knowledge: (rep ID, completeness) per port.
		if err := exchangeSubInfo(net, div, complete, nbrRep, nbrComplete); err != nil {
			return nil, err
		}
		// Candidate out-edges for incomplete sub-parts: same part, different
		// sub-part; prefer incomplete targets (class 0) over complete ones
		// (class 1). Each node bids its best class and keeps the lowest port
		// of that class; each sub-part picks the minimum bid.
		hasAny := false
		for v := 0; v < n; v++ {
			cand[v], candPort[v] = congest.Val{A: congest.PosInf}, -1
			if complete[v] || pb.Covered[v] {
				continue
			}
			same := in.SameRow(v)
			row := csr.RowStart[v]
			for q := range same {
				if !same[q] || nbrRep[row+int32(q)] == div.RepID[v] {
					continue
				}
				class := int64(0)
				if nbrComplete[row+int32(q)] {
					class = 1
				}
				if class < cand[v].A {
					cand[v], candPort[v] = bid(class, net.ID(v)), q
				}
				hasAny = true
			}
		}
		if !hasAny {
			break
		}
		mins, err := fa.Aggregate(cand, congest.MinPair)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			chosen[v] = -1
			if candPort[v] >= 0 && mins[v] == cand[v] {
				chosen[v] = candPort[v]
			}
		}

		// Star joining over the sub-parts, led by their representatives.
		sj, err := StarJoin(net, div.RepID, chosen, fa, true, int64(iter))
		if err != nil {
			return nil, err
		}

		// Joiners adopt the receiver's rep ID, spread over the OLD joiner
		// trees while they are still intact.
		if err := AdoptAcross(net, "subpart/attach", chosen, sj, div.RepID, fa, reply); err != nil {
			return nil, err
		}
		// Re-root joiner trees at their endpoints and attach them as
		// children on the receiver side.
		if err := rerootJoiners(net, div, chosen, sj); err != nil {
			return nil, err
		}
		// A joiner node holding another node's rep ID is no rep. The FLIP
		// wave clears the old rep's flag unless a fault cut it short.
		for v := 0; v < n; v++ {
			if sj.Role[v] == RoleJoiner && div.RepID[v] != net.ID(v) {
				div.IsRep[v] = false
			}
		}
		// Completeness: sub-part size >= d freezes it (joiners now count
		// within their receiver's tree).
		sizes, err := fa.Aggregate(ones, congest.SumPair)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			if !pb.Covered[v] {
				complete[v] = sizes[v].A >= d
			}
		}
	}

	// Final passes: depths down the trees, and the SameSub port exchange.
	err := div.Down(net, "subpart/depths",
		func(v int) (congest.Message, bool) { return congest.Message{}, div.IsRep[v] },
		func(v int, m congest.Message) congest.Message {
			div.Depth[v] = int(m.A)
			return congest.Message{A: m.A + 1}
		})
	if err != nil {
		return nil, err
	}
	if err := exchangeReps(net, in, div); err != nil {
		return nil, err
	}
	return div, nil
}

// bid is an endpoint's key in Algorithm 6's merge choice: MinPair over the
// bids of a sub-part picks the minimum (class, ID) for IDs of any size, and
// the winner recognises its own bid by equality, since IDs are unique.
func bid(class, id int64) congest.Val { return congest.Val{A: class, B: id} }

// exchangeSubInfo: one round announcing (rep ID, completeness) on all
// ports, into flat CSR-offset buffers (every node broadcasts, so every
// entry of both buffers is rewritten — callers may reuse them uncleaned).
func exchangeSubInfo(net *congest.Network, div *Division, complete []bool,
	nbrRep []int64, nbrComplete []bool) error {
	p := &subInfoProc{div: div, complete: complete, nbrRep: nbrRep, nbrComplete: nbrComplete}
	_, err := net.RunNodes("subpart/subinfo", p, net.RoundCap())
	return err
}

// subInfoProc broadcasts (rep ID, completeness) on all ports into the flat
// CSR-offset neighbor-knowledge buffers.
type subInfoProc struct {
	div         *Division
	complete    []bool
	nbrRep      []int64
	nbrComplete []bool
}

// Step implements congest.NodeProc.
func (p *subInfoProc) Step(ctx *congest.Ctx, v int) bool {
	div := p.div
	if ctx.Round() == 0 {
		flag := int64(0)
		if p.complete[v] {
			flag = 1
		}
		ctx.Broadcast(congest.Message{Kind: kindSubInfo, A: div.RepID[v], B: flag})
	}
	repRow := p.nbrRep[div.Row[v]:div.Row[v+1]]
	compRow := p.nbrComplete[div.Row[v]:div.Row[v+1]]
	ctx.ForRecv(func(m congest.Incoming) {
		repRow[m.Port] = m.Msg.A
		compRow[m.Port] = m.Msg.B != 0
	})
	return false
}

// rerootJoiners re-roots each joiner sub-part's tree at its attachment
// endpoint (the endpoint takes the chosen edge as its parent, a FLIP wave
// inverts parent pointers along the path to the old representative) and
// registers the endpoint as a child on the receiver side (ATTACH).
func rerootJoiners(net *congest.Network, div *Division, chosen []int, sj *StarJoinResult) error {
	p := &rerootProc{div: div, sj: sj, chosen: chosen}
	_, err := net.RunNodes("subpart/reroot", p, net.RoundCap())
	return err
}

// rerootProc re-roots joiner trees at their chosen endpoints via FLIP waves
// and registers endpoints as children on the receiver side.
type rerootProc struct {
	div    *Division
	sj     *StarJoinResult
	chosen []int
}

// Step implements congest.NodeProc.
func (p *rerootProc) Step(ctx *congest.Ctx, v int) bool {
	div := p.div
	flip := func(newParent int) {
		old := div.ParentPort[v]
		div.ParentPort[v] = newParent
		if old >= 0 {
			ctx.Send(old, congest.Message{Kind: kindFlip})
			div.ChildPorts[v] = append(div.ChildPorts[v], old)
		}
		div.IsRep[v] = false
	}
	if ctx.Round() == 0 && p.sj.Role[v] == RoleJoiner && p.chosen[v] >= 0 {
		ctx.Send(p.chosen[v], congest.Message{Kind: kindAttach})
		flip(p.chosen[v])
	}
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindAttach:
			// A joiner endpoint hangs below me now.
			div.ChildPorts[v] = append(div.ChildPorts[v], m.Port)
		case kindFlip:
			// A FLIP from port q: the sender becomes my parent and
			// leaves my children.
			div.ChildPorts[v] = removePort(div.ChildPorts[v], m.Port)
			flip(m.Port)
		}
	})
	return false
}

func removePort(ports []int, q int) []int {
	out := ports[:0]
	for _, p := range ports {
		if p != q {
			out = append(out, p)
		}
	}
	return out
}

func log2ceil(n int) int {
	k := 0
	for s := 1; s < n; s *= 2 {
		k++
	}
	return k
}
