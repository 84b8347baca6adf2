package part

import (
	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/tree"
)

// Message kinds used by this package's protocols.
const (
	kindElect int32 = iota + 30
	kindUncovered
	kindFlagUp
	kindVerdictDown
)

// Info is a PA partition as local knowledge. Entry v of LeaderID/IsLeader/
// Dense belongs to node v; SamePart is flat over the graph's CSR offsets.
type Info struct {
	// Row is the CSR row-offset table (len n+1; aliases the graph's
	// CSR.RowStart, never a copy): node v's per-port entries occupy
	// SamePart[Row[v]:Row[v+1]].
	Row []int32
	// SamePart is one flat array over all 2m half-edges: SamePart[Row[v]+p]
	// reports whether port p of node v stays inside v's part. The flat
	// CSR-offset layout replaces the former per-node [][]bool — one
	// allocation instead of n+1, and the same offsets the engine's delivery
	// slots use.
	SamePart []bool
	LeaderID []int64 // ID of my part's leader; -1 if not (yet) known
	IsLeader []bool

	// Dense is an engine-side dense relabeling of the partition, for
	// oracles and experiment reporting, never read by protocols. FromDense
	// sets it; it is nil on partitions that protocols build.
	Dense []int
}

// NewInfo allocates an empty partition shell over net's graph: a flat
// SamePart across the CSR offsets, leaders unknown (LeaderID -1).
func NewInfo(net *congest.Network) *Info {
	g := net.Graph()
	n := g.N()
	csr := g.CSR()
	in := &Info{
		Row:      csr.RowStart,
		SamePart: make([]bool, len(csr.PortTo)),
		LeaderID: make([]int64, n),
		IsLeader: make([]bool, n),
	}
	for v := range in.LeaderID {
		in.LeaderID[v] = -1
	}
	return in
}

// SameRow returns node v's per-port window of the flat SamePart array
// (length Degree(v), indexed by port).
func (in *Info) SameRow(v int) []bool { return in.SamePart[in.Row[v]:in.Row[v+1]] }

// FromDense builds partition-local knowledge from a dense parts slice
// (engine-side construction of the PA instance; the resulting SamePart is
// exactly what Definition 1.1 grants each node). Leaders are unknown.
func FromDense(net *congest.Network, parts []int) (*Info, error) {
	g := net.Graph()
	if err := graph.ValidatePartition(g, parts); err != nil {
		return nil, err
	}
	n := g.N()
	in := NewInfo(net)
	dense, _ := graph.NormalizeParts(parts)
	in.Dense = dense
	for v := 0; v < n; v++ {
		same := in.SameRow(v)
		dv := dense[v]
		g.ForPorts(v, func(p, to, _ int) bool {
			same[p] = dense[to] == dv
			return true
		})
	}
	return in, nil
}

// SetLeaders installs known leaders (used by applications such as Borůvka
// that maintain fragment leaders as they merge).
func (in *Info) SetLeaders(leaderID []int64, isLeader []bool) {
	copy(in.LeaderID, leaderID)
	copy(in.IsLeader, isLeader)
}

// ElectLeaders floods the minimum ID within each part and installs the
// winners as part leaders. Rounds are O(max part diameter) — fine for tests
// and for applications whose parts are known to be shallow; the general
// leaderless case is handled round-optimally by Algorithm 9 (internal/core).
// maxRounds caps the flood; callers pass net.RoundCap(). It is the one
// building block that still takes a cap, because the separate benchmark
// module calls this three-argument form.
func ElectLeaders(net *congest.Network, in *Info, maxRounds int64) error {
	n := net.N()
	minID := make([]int64, n)
	for v := 0; v < n; v++ {
		minID[v] = net.ID(v)
	}
	if _, err := net.RunNodes("part/elect", &electProc{in: in, minID: minID}, maxRounds); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		in.LeaderID[v] = minID[v]
		in.IsLeader[v] = net.ID(v) == minID[v]
	}
	return nil
}

// electProc is the shared min-ID flood over intra-part edges: per-node
// state is the flat minID array, indexed by the stepped node.
type electProc struct {
	in    *Info
	minID []int64
}

// Step implements congest.NodeProc.
func (p *electProc) Step(ctx *congest.Ctx, v int) bool {
	improved := ctx.Round() == 0
	ctx.ForRecv(func(m congest.Incoming) {
		if m.Msg.A < p.minID[v] {
			p.minID[v] = m.Msg.A
			improved = true
		}
	})
	if improved {
		for q, ok := range p.in.SameRow(v) {
			if ok {
				ctx.Send(q, congest.Message{Kind: kindElect, A: p.minID[v]})
			}
		}
	}
	return false
}

// BFS is the outcome of a radius-capped intra-part BFS from part leaders:
// a Forest rooted at the leaders (ParentPort -1 and Depth -1 at unjoined
// nodes). Covered[v] reports (as knowledge at v!) whether v's entire part
// was reached within the radius — the branch condition of Algorithms 1 and
// 3 (a part of at most D nodes always fits in radius D).
type BFS struct {
	tree.Forest
	Joined  []bool
	Covered []bool
	Size    []int64 // part size, known when Covered (leader counts, then broadcasts)
}

// bfsState bundles the shared slices the verdict proc writes into.
type bfsState struct {
	in *Info
	b  *BFS
	// Child accounting for the convergecast stage: expected replies.
	pendingChild []int
	flag         []bool // a complaint reached this subtree
	count        []int64
	reported     []bool
}

// RestrictedBFS runs the capped intra-part BFS plus coverage verdict:
//
//  1. JOIN waves flood from leaders along intra-part edges for `radius`
//     rounds (tree.Forest.Grow); nodes adopt the first JOIN heard and reply
//     CHILD so parents learn their children.
//  2. Unjoined nodes complain (UNCOVERED) to intra-part neighbors.
//  3. A convergecast up the partial BFS forest delivers to each leader the
//     OR of complaints and the joined-node count.
//  4. Leaders broadcast the verdict (covered?, size) back down.
//
// Rounds O(radius), messages O(Σ_i m_i) over intra-part edges.
func RestrictedBFS(net *congest.Network, in *Info, radius int64) (*BFS, error) {
	n := net.N()
	b := &BFS{
		Forest: tree.Forest{
			ParentPort: make([]int, n),
			ChildPorts: make([][]int, n),
			Depth:      make([]int, n),
		},
		Covered: make([]bool, n),
		Size:    make([]int64, n),
	}
	st := &bfsState{
		in: in, b: b,
		pendingChild: make([]int, n),
		flag:         make([]bool, n),
		count:        make([]int64, n),
		reported:     make([]bool, n),
	}
	for v := 0; v < n; v++ {
		b.ParentPort[v] = -1
		b.Depth[v] = -1
	}
	joined, err := b.Grow(net, "part/bfs-join", tree.Wave{
		Radius: radius,
		Ports:  in.SameRow,
		Start:  func(_ *congest.Ctx, v int) bool { return in.IsLeader[v] },
	})
	if err != nil {
		return nil, err
	}
	b.Joined = joined
	if _, err := net.RunNodes("part/bfs-verdict", &bfsVerdictProc{st: st}, net.RoundCap()); err != nil {
		return nil, err
	}
	return b, nil
}

// bfsVerdictProc: stages 2-4 (complaints, convergecast, verdict broadcast).
// pendingChild now holds the number of children that will report.
type bfsVerdictProc struct {
	st *bfsState
}

// Step implements congest.NodeProc.
func (p *bfsVerdictProc) Step(ctx *congest.Ctx, v int) bool {
	st := p.st
	if ctx.Round() == 0 {
		if !st.b.Joined[v] {
			// Complain to intra-part neighbors; some joined neighbor exists
			// along the path toward the leader... or the whole part is
			// unjoined, in which case no leader exists and no verdict is
			// needed (Covered stays false).
			for q, ok := range st.in.SameRow(v) {
				if ok {
					ctx.Send(q, congest.Message{Kind: kindUncovered})
				}
			}
			return false
		}
		st.count[v] = 1
		st.pendingChild[v] = len(st.b.ChildPorts[v])
	}
	if !st.b.Joined[v] {
		return false
	}
	ctx.ForRecv(func(m congest.Incoming) {
		switch m.Msg.Kind {
		case kindUncovered:
			st.flag[v] = true
		case kindFlagUp:
			st.flag[v] = st.flag[v] || m.Msg.A != 0
			st.count[v] += m.Msg.B
			st.pendingChild[v]--
		case kindVerdictDown:
			st.b.Covered[v] = m.Msg.A != 0
			st.b.Size[v] = m.Msg.B
			for _, q := range st.b.ChildPorts[v] {
				ctx.Send(q, m.Msg)
			}
		}
	})
	// Fire the convergecast once all children reported. Round 1 is the
	// earliest complaints can arrive, so leaves wait until round >= 2.
	if ctx.Round() >= 2 && st.pendingChild[v] == 0 && !st.reported[v] {
		st.reported[v] = true
		flagBit := int64(0)
		if st.flag[v] {
			flagBit = 1
		}
		if st.b.ParentPort[v] >= 0 {
			ctx.Send(st.b.ParentPort[v], congest.Message{Kind: kindFlagUp, A: flagBit, B: st.count[v]})
		} else if st.in.IsLeader[v] {
			covered := int64(1)
			if st.flag[v] {
				covered = 0
			}
			st.b.Covered[v] = covered != 0
			st.b.Size[v] = st.count[v]
			for _, q := range st.b.ChildPorts[v] {
				ctx.Send(q, congest.Message{Kind: kindVerdictDown, A: covered, B: st.count[v]})
			}
		}
		return false
	}
	return !st.reported[v]
}
