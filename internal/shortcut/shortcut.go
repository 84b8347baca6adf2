package shortcut

import (
	"fmt"
	"slices"
	"sort"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

const kindBlockSetup int32 = 70

// BlockMeta is what a node on a block knows about the block after setup.
type BlockMeta struct {
	RootDepth int64
	RootID    int64
}

// Shortcut is a T-restricted shortcut held as node-local knowledge. Parts
// are identified by their leader IDs.
type Shortcut struct {
	T *tree.BFSTree
	// Up[v] holds the parts whose shortcut contains v's parent tree edge.
	Up []map[int64]struct{}
	// DownPorts[v][i] lists v's ports to children c with (c,v) in H_i.
	DownPorts []map[int64][]int
	// Meta[v][i] is block-root info for part i's block through v, filled by
	// SetupBlocks for every v in V(H_i).
	Meta []map[int64]BlockMeta
}

// New returns an empty shortcut over t.
func New(t *tree.BFSTree, n int) *Shortcut {
	s := &Shortcut{
		T:         t,
		Up:        make([]map[int64]struct{}, n),
		DownPorts: make([]map[int64][]int, n),
		Meta:      make([]map[int64]BlockMeta, n),
	}
	for v := 0; v < n; v++ {
		s.Up[v] = make(map[int64]struct{})
		s.DownPorts[v] = make(map[int64][]int)
		s.Meta[v] = make(map[int64]BlockMeta)
	}
	return s
}

// ClaimUp records that v's parent edge belongs to part i's shortcut
// (construction-side, called by the claiming protocols at v).
func (s *Shortcut) ClaimUp(v int, i int64) { s.Up[v][i] = struct{}{} }

// HasUp reports whether v's parent edge is in part i's shortcut.
func (s *Shortcut) HasUp(v int, i int64) bool {
	_, ok := s.Up[v][i]
	return ok
}

// AddDownPort records at v that the child edge behind port q carries part i
// (construction-side, called when a claim arrives at v).
func (s *Shortcut) AddDownPort(v int, i int64, q int) {
	for _, have := range s.DownPorts[v][i] {
		if have == q {
			return
		}
	}
	s.DownPorts[v][i] = append(s.DownPorts[v][i], q)
}

// OnBlock reports whether v touches part i's shortcut (v in V(H_i)).
func (s *Shortcut) OnBlock(v int, i int64) bool {
	if s.HasUp(v, i) {
		return true
	}
	return len(s.DownPorts[v][i]) > 0
}

// IsBlockRoot reports whether v is the root of part i's block through v:
// on the block, but the parent edge is not in H_i.
func (s *Shortcut) IsBlockRoot(v int, i int64) bool {
	return s.OnBlock(v, i) && !s.HasUp(v, i)
}

// DropPart removes part i's claims everywhere (used between construction
// repetitions when an unverified part's claims are discarded; each node
// forgets its local entries).
func (s *Shortcut) DropPart(i int64) {
	for v := range s.Up {
		delete(s.Up[v], i)
		delete(s.DownPorts[v], i)
		delete(s.Meta[v], i)
	}
}

// UpParts returns the parts on v's parent edge in deterministic order.
func (s *Shortcut) UpParts(v int) []int64 {
	out := make([]int64, 0, len(s.Up[v]))
	for i := range s.Up[v] {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// SetupBlocks distributes (root depth, root ID) through every block: each
// block root starts a downward pass along its block's edges; nodes record
// the metadata and forward along their own down-ports for that part. An
// edge carries one setup message per part using it, scheduled one per round
// (FIFO), so the pass takes O(D + congestion) rounds and Σ_i |H_i| = Õ(n)
// messages.
func SetupBlocks(net *congest.Network, s *Shortcut, maxRounds int64) error {
	rows := net.Graph().CSR().RowStart
	sp := &setupProc{
		s:      s,
		rows:   rows,
		queues: make([][]congest.Message, rows[net.N()]),
		busy:   make([][]int, net.N()),
	}
	_, err := net.RunNodes("shortcut/setup", sp, maxRounds)
	return err
}

// setupProc drives the block-setup pass: a per-(node, port) FIFO queue of
// pending setup messages, one send per port per round. Shared across nodes;
// the queues are indexed by CSR slot (node v's ports are its CSR row), and
// busy[v] lists v's ports with a non-empty queue, ascending.
type setupProc struct {
	s      *Shortcut
	rows   []int32
	queues [][]congest.Message
	busy   [][]int
}

// Step implements congest.NodeProc.
func (p *setupProc) Step(ctx *congest.Ctx, v int) bool {
	s := p.s
	if ctx.Round() == 0 {
		// Block roots (on the block, no up-claim) start the downward pass;
		// block leaves (up-claim only) wait to hear from above. Parts are
		// visited in sorted order for deterministic scheduling.
		parts := make([]int64, 0, len(s.DownPorts[v]))
		for i := range s.DownPorts[v] {
			parts = append(parts, i)
		}
		sort.Slice(parts, func(a, b int) bool { return parts[a] < parts[b] })
		for _, i := range parts {
			if s.IsBlockRoot(v, i) {
				meta := BlockMeta{RootDepth: int64(s.T.Depth[v]), RootID: ctx.ID()}
				s.Meta[v][i] = meta
				for _, q := range s.DownPorts[v][i] {
					p.enqueue(v, q, congest.Message{Kind: kindBlockSetup, A: i, B: meta.RootDepth, C: meta.RootID})
				}
			}
		}
	}
	ctx.ForRecv(func(_ int, m congest.Incoming) {
		if m.Msg.Kind != kindBlockSetup {
			return
		}
		i := m.Msg.A
		if _, seen := s.Meta[v][i]; seen {
			return
		}
		s.Meta[v][i] = BlockMeta{RootDepth: m.Msg.B, RootID: m.Msg.C}
		for _, q := range s.DownPorts[v][i] {
			p.enqueue(v, q, congest.Message{Kind: kindBlockSetup, A: i, B: m.Msg.B, C: m.Msg.C})
		}
	})
	return p.flush(ctx, v)
}

func (p *setupProc) enqueue(v, port int, m congest.Message) {
	slot := int(p.rows[v]) + port
	if len(p.queues[slot]) == 0 {
		k, _ := slices.BinarySearch(p.busy[v], port)
		p.busy[v] = slices.Insert(p.busy[v], k, port)
	}
	p.queues[slot] = append(p.queues[slot], m)
}

// flush sends one queued message per busy port (ascending) and reports
// whether work remains.
func (p *setupProc) flush(ctx *congest.Ctx, v int) bool {
	queues := p.queues[p.rows[v]:p.rows[v+1]]
	keep := p.busy[v][:0]
	for _, port := range p.busy[v] {
		q := queues[port]
		if ctx.CanSend(port) {
			ctx.Send(port, q[0])
			q = q[1:]
			queues[port] = q
		}
		if len(q) > 0 {
			keep = append(keep, port)
		}
	}
	p.busy[v] = keep
	return len(keep) > 0
}

// Congestion returns (engine-side) the maximum number of parts on any tree
// edge — the shortcut's congestion c per Definition 2.1(1).
func (s *Shortcut) Congestion() int {
	c := 0
	for v := range s.Up {
		if len(s.Up[v]) > c {
			c = len(s.Up[v])
		}
	}
	return c
}

// TotalEdges returns Σ_i |H_i| (engine-side).
func (s *Shortcut) TotalEdges() int {
	t := 0
	for v := range s.Up {
		t += len(s.Up[v])
	}
	return t
}

// BlockCounts returns (engine-side) the number of blocks of each part that
// has a nonempty shortcut, keyed by part ID: the connected components of
// the forest (V(H_i), H_i), Definition 2.3.
func (s *Shortcut) BlockCounts() map[int64]int {
	// Group claimed edges by part.
	type edge struct{ child, parent int }
	edgesByPart := make(map[int64][]edge)
	for v := range s.Up {
		for i := range s.Up[v] {
			edgesByPart[i] = append(edgesByPart[i], edge{child: v, parent: s.T.ParentNode[v]})
		}
	}
	out := make(map[int64]int, len(edgesByPart))
	for i, edges := range edgesByPart {
		// Union-find over the touched nodes only.
		idx := make(map[int]int)
		touch := func(v int) int {
			if id, ok := idx[v]; ok {
				return id
			}
			id := len(idx)
			idx[v] = id
			return id
		}
		for _, e := range edges {
			touch(e.child)
			touch(e.parent)
		}
		dsu := newMiniDSU(len(idx))
		for _, e := range edges {
			dsu.union(idx[e.child], idx[e.parent])
		}
		out[i] = dsu.count()
	}
	return out
}

// BlockParameter returns (engine-side) the maximum block count over all
// parts — the shortcut's block parameter b per Definition 2.3. Parts with
// empty shortcuts contribute 0.
func (s *Shortcut) BlockParameter() int {
	b := 0
	for _, c := range s.BlockCounts() {
		if c > b {
			b = c
		}
	}
	return b
}

// VerifyAgainstTree checks structural invariants engine-side: every claim
// is mirrored (child's Up entry matches a parent DownPorts entry), and Meta
// agrees with the true block roots. Test/diagnostic helper.
func (s *Shortcut) VerifyAgainstTree(net *congest.Network, in *part.Info) error {
	g := net.Graph()
	for v := range s.Up {
		for i := range s.Up[v] {
			pp := s.T.ParentPort[v]
			if pp < 0 {
				return fmt.Errorf("shortcut: root has an up-claim for part %d", i)
			}
			u := g.Neighbor(v, pp)
			// The edge v-u is unique, so the mirrored down-port must be
			// exactly the CSR-materialized reverse port of pp.
			rq := g.ReversePort(v, pp)
			found := false
			for _, q := range s.DownPorts[u][i] {
				if q == rq {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("shortcut: claim %d->%d for part %d not mirrored", v, u, i)
			}
		}
		for i := range s.Meta[v] {
			if !s.OnBlock(v, i) {
				return fmt.Errorf("shortcut: node %d has meta for part %d but is off-block", v, i)
			}
		}
	}
	_ = in
	return nil
}

// miniDSU is a tiny union-find for component counting.
type miniDSU struct{ parent []int }

func newMiniDSU(n int) *miniDSU {
	d := &miniDSU{parent: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

func (d *miniDSU) find(v int) int {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]]
		v = d.parent[v]
	}
	return v
}

func (d *miniDSU) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[rb] = ra
	}
}

func (d *miniDSU) count() int {
	c := 0
	for v := range d.parent {
		if d.find(v) == v {
			c++
		}
	}
	return c
}
