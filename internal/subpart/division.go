package subpart

import (
	"fmt"
	"math"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// kindRepExchange is the SameSub exchange's message kind.
const kindRepExchange int32 = 52

// Division is a sub-part division as local knowledge: entry v of each
// per-node slice belongs to node v; SameSub is flat over the CSR offsets.
// Its Forest holds the sub-part trees, rooted at the representatives.
type Division struct {
	tree.Forest
	RepID []int64 // ID of v's sub-part representative
	IsRep []bool
	// Row/SameSub mirror part.Info's flat layout: SameSub[Row[v]+q] reports
	// whether the neighbor behind port q of node v is in the same sub-part.
	Row     []int32
	SameSub []bool
}

// SameSubAt reports whether port q of node v stays inside v's sub-part.
func (d *Division) SameSubAt(v, q int) bool { return d.SameSub[d.Row[v]+int32(q)] }

// SameSubRow returns node v's per-port window of the flat SameSub array.
func (d *Division) SameSubRow(v int) []bool { return d.SameSub[d.Row[v]:d.Row[v+1]] }

// newDivision is every division's start state, before any merging: a part
// covered by pb is one sub-part on its part-BFS tree, rooted at the leader,
// and every node of an uncovered part is its own representative.
func newDivision(net *congest.Network, in *part.Info, pb *part.BFS) *Division {
	n := net.N()
	csr := net.Graph().CSR()
	d := &Division{
		Forest: tree.Forest{
			ParentPort: make([]int, n),
			ChildPorts: make([][]int, n),
			Depth:      make([]int, n),
		},
		RepID:   make([]int64, n),
		IsRep:   make([]bool, n),
		Row:     csr.RowStart,
		SameSub: make([]bool, len(csr.PortTo)),
	}
	for v := 0; v < n; v++ {
		if pb.Covered[v] {
			d.RepID[v], d.IsRep[v] = in.LeaderID[v], in.IsLeader[v]
			d.ParentPort[v] = pb.ParentPort[v]
			d.ChildPorts[v] = append([]int(nil), pb.ChildPorts[v]...)
			d.Depth[v] = pb.Depth[v]
			continue
		}
		d.RepID[v], d.IsRep[v] = net.ID(v), true
		d.ParentPort[v] = -1
	}
	return d
}

// SingletonDivision is the start state with no merging: the Section 3.1
// strawman, in which every node of an uncovered part injects into the
// shortcut blocks itself. It needs no communication: a singleton has no
// same-sub-part port, and a covered part's ports follow from pb's verdict.
func SingletonDivision(net *congest.Network, in *part.Info, pb *part.BFS) *Division {
	div := newDivision(net, in, pb)
	g := net.Graph()
	for v := 0; v < net.N(); v++ {
		if !pb.Covered[v] {
			continue
		}
		row, same := div.SameSubRow(v), in.SameRow(v)
		g.ForPorts(v, func(q, to, _ int) bool {
			row[q] = same[q] && pb.Covered[to]
			return true
		})
	}
	return div
}

// RandomDivision computes a sub-part division via Algorithm 3. Parts covered
// by pb (intra-part BFS of radius D reached everyone) keep the start state's
// single sub-part rooted at the leader. In larger parts every node
// self-elects as a representative with probability min(1, ln(n)/D) and an
// O(D)-round restricted wave (tree.Forest.Grow, carrying the
// representative's ID) has each node adopt the first representative it
// hears (w.h.p. every node is reached and each part gets Õ(|P_i|/D)
// sub-parts, Lemma 5.1). Nodes left unreached — a 1/poly(n) probability
// event — keep their start state as singleton sub-parts, preserving
// correctness unconditionally.
func RandomDivision(net *congest.Network, in *part.Info, pb *part.BFS, d int64) (*Division, error) {
	n := net.N()
	if d < 1 {
		d = 1
	}
	div := newDivision(net, in, pb)

	// Sampling wave over uncovered parts, with the paper's probability
	// min{1, log n / D}.
	prob := math.Min(1, math.Log(float64(n)+2)/float64(d))
	_, err := div.Grow(net, "subpart/wave", tree.Wave{
		Radius: d,
		Ports:  in.SameRow,
		Start:  func(ctx *congest.Ctx, _ int) bool { return ctx.Rand().Float64() < prob },
		Skip:   pb.Covered,
		Label:  div.RepID,
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if !pb.Covered[v] && div.ParentPort[v] >= 0 {
			div.IsRep[v] = false // v adopted a representative the wave carried
		}
	}
	if err := exchangeReps(net, in, div); err != nil {
		return nil, err
	}
	return div, nil
}

// exchangeReps has every node announce its representative ID across
// intra-part edges so that both endpoints learn whether the edge stays
// inside a sub-part (needed for Algorithm 1's exit-edge broadcasts), into
// the division's flat SameSub array. One round, O(Σ_i m_i) messages.
func exchangeReps(net *congest.Network, in *part.Info, div *Division) error {
	return tree.Hop(net, "subpart/exchange",
		func(ctx *congest.Ctx, v int) {
			for q, ok := range in.SameRow(v) {
				if ok {
					ctx.Send(q, congest.Message{Kind: kindRepExchange, A: div.RepID[v]})
				}
			}
		},
		func(_ *congest.Ctx, v int, m congest.Incoming) {
			div.SameSubRow(v)[m.Port] = m.Msg.A == div.RepID[v]
		})
}

// Validate checks division invariants engine-side (test/diagnostic aid):
// sub-part trees stay within parts, parent pointers lead acyclically to the
// representative within the stated depth, child/parent views agree, and
// SameSub matches RepID equality. Part membership is read through
// in.SameRow, so in needs no Dense labels.
func (div *Division) Validate(net *congest.Network, in *part.Info, maxDepth int) error {
	g := net.Graph()
	n := g.N()
	for v := 0; v < n; v++ {
		if div.IsRep[v] {
			if div.RepID[v] != net.ID(v) {
				return fmt.Errorf("subpart: rep %d has RepID %d, want own ID", v, div.RepID[v])
			}
			if div.ParentPort[v] != -1 {
				return fmt.Errorf("subpart: rep %d has a parent", v)
			}
		}
		// Walk to the representative.
		u, steps := v, 0
		for div.ParentPort[u] >= 0 {
			next := g.Neighbor(u, div.ParentPort[u])
			if !in.SameRow(u)[div.ParentPort[u]] {
				return fmt.Errorf("subpart: tree edge %d-%d crosses parts", u, next)
			}
			if div.RepID[next] != div.RepID[v] {
				return fmt.Errorf("subpart: tree edge %d-%d crosses sub-parts", u, next)
			}
			u = next
			steps++
			if steps > n {
				return fmt.Errorf("subpart: parent cycle at node %d", v)
			}
		}
		if !div.IsRep[u] {
			return fmt.Errorf("subpart: node %d's chain ends at non-rep %d", v, u)
		}
		if div.RepID[v] != net.ID(u) {
			return fmt.Errorf("subpart: node %d RepID %d but chain reaches %d", v, div.RepID[v], net.ID(u))
		}
		if maxDepth > 0 && steps > maxDepth {
			return fmt.Errorf("subpart: node %d at tree depth %d > %d", v, steps, maxDepth)
		}
		for _, q := range div.ChildPorts[v] {
			c := g.Neighbor(v, q)
			if div.ParentPort[c] < 0 || g.Neighbor(c, div.ParentPort[c]) != v {
				return fmt.Errorf("subpart: child link %d->%d not mirrored", v, c)
			}
		}
		var mismatch error
		same := in.SameRow(v)
		g.ForPorts(v, func(q, u, _ int) bool {
			want := div.RepID[u] == div.RepID[v]
			if same[q] && div.SameSubAt(v, q) != want {
				mismatch = fmt.Errorf("subpart: SameSub[%d][%d]=%v, want %v", v, q, div.SameSubAt(v, q), want)
				return false
			}
			return true
		})
		if mismatch != nil {
			return mismatch
		}
	}
	return nil
}

// CountSubParts returns (engine-side) the number of sub-parts per dense part
// ID. It reads in.Dense, so in must come from part.FromDense.
func (div *Division) CountSubParts(in *part.Info) map[int]int {
	repsSeen := make(map[int]map[int64]struct{})
	for v, p := range in.Dense {
		if repsSeen[p] == nil {
			repsSeen[p] = make(map[int64]struct{})
		}
		repsSeen[p][div.RepID[v]] = struct{}{}
	}
	out := make(map[int]int, len(repsSeen))
	for p, s := range repsSeen {
		out[p] = len(s)
	}
	return out
}
