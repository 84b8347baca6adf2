package shortcut

import (
	"slices"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/tree"
)

const kindBlockSetup int32 = 70

// record is what a node knows about one part's shortcut: whether its parent
// tree edge is in H_i, the ports of its child edges in H_i (in the order the
// claims arrived), and, once SetupBlocks has reached it, the depth of the
// block's root.
type record struct {
	part      int64
	down      []int
	rootDepth int64
	up        bool
	hasMeta   bool
}

// Shortcut is a T-restricted shortcut held as node-local knowledge. Parts
// are identified by their leader IDs.
type Shortcut struct {
	T *tree.BFSTree
	// parts[v] holds v's records, sorted by part ID.
	parts [][]record
}

// New returns an empty shortcut over t.
func New(t *tree.BFSTree, n int) *Shortcut {
	return &Shortcut{T: t, parts: make([][]record, n)}
}

// find returns the index of part i's record at v and whether it exists;
// when it does not, the index is where it would be inserted.
func (s *Shortcut) find(v int, i int64) (int, bool) {
	rs := s.parts[v]
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].part < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(rs) && rs[lo].part == i
}

// rec returns part i's record at v, or nil if v knows nothing of part i.
func (s *Shortcut) rec(v int, i int64) *record {
	if k, ok := s.find(v, i); ok {
		return &s.parts[v][k]
	}
	return nil
}

// add returns part i's record at v, creating it on first mention. The
// pointer is valid until the next record is created at v.
func (s *Shortcut) add(v int, i int64) *record {
	k, ok := s.find(v, i)
	if !ok {
		s.parts[v] = slices.Insert(s.parts[v], k, record{part: i})
	}
	return &s.parts[v][k]
}

// ClaimUp records that v's parent edge belongs to part i's shortcut
// (construction-side, called by the claiming protocols at v).
func (s *Shortcut) ClaimUp(v int, i int64) { s.add(v, i).up = true }

// HasUp reports whether v's parent edge is in part i's shortcut.
func (s *Shortcut) HasUp(v int, i int64) bool {
	r := s.rec(v, i)
	return r != nil && r.up
}

// AddDownPort records at v that the child edge behind port q carries part i
// (construction-side, called when a claim arrives at v).
func (s *Shortcut) AddDownPort(v int, i int64, q int) {
	r := s.add(v, i)
	if !slices.Contains(r.down, q) {
		r.down = append(r.down, q)
	}
}

// DownPorts returns v's ports to children c with (c,v) in H_i, in the order
// the claims arrived. The caller must not modify the slice.
func (s *Shortcut) DownPorts(v int, i int64) []int {
	if r := s.rec(v, i); r != nil {
		return r.down
	}
	return nil
}

// RootDepth returns the depth of the root of part i's block through v, as
// SetupBlocks delivered it, and whether it did.
func (s *Shortcut) RootDepth(v int, i int64) (int64, bool) {
	if r := s.rec(v, i); r != nil && r.hasMeta {
		return r.rootDepth, true
	}
	return 0, false
}

// OnBlock reports whether v touches part i's shortcut (v in V(H_i)).
func (s *Shortcut) OnBlock(v int, i int64) bool {
	r := s.rec(v, i)
	return r != nil && (r.up || len(r.down) > 0)
}

// IsBlockRoot reports whether v is the root of part i's block through v:
// on the block, but the parent edge is not in H_i.
func (s *Shortcut) IsBlockRoot(v int, i int64) bool {
	r := s.rec(v, i)
	return r != nil && r.isRoot()
}

func (r *record) isRoot() bool { return !r.up && len(r.down) > 0 }

// DropPart removes part i's claims everywhere (used between construction
// repetitions when an unverified part's claims are discarded; each node
// forgets its local record).
func (s *Shortcut) DropPart(i int64) {
	for v := range s.parts {
		if k, ok := s.find(v, i); ok {
			s.parts[v] = slices.Delete(s.parts[v], k, k+1)
		}
	}
}

// SetupBlocks distributes the root depth through every block: each block
// root starts a downward pass along its block's edges; nodes record the
// depth and forward along their own down-ports for that part. An edge
// carries one setup message per part using it, scheduled one per round
// (FIFO), so the pass takes O(D + congestion) rounds and Σ_i |H_i| = Õ(n)
// messages.
func SetupBlocks(net *congest.Network, s *Shortcut) error {
	rows := net.Graph().CSR().RowStart
	sp := &setupProc{
		s:      s,
		rows:   rows,
		queues: make([][]congest.Message, rows[net.N()]),
		busy:   make([][]int, net.N()),
	}
	_, err := net.RunNodes("shortcut/setup", sp, net.RoundCap())
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
	if ctx.Round() == 0 {
		// Block roots (on the block, no up-claim) start the downward pass;
		// block leaves (up-claim only) wait to hear from above. Records are
		// in part order, which makes the scheduling deterministic.
		for k := range p.s.parts[v] {
			r := &p.s.parts[v][k]
			if !r.isRoot() {
				continue
			}
			r.rootDepth, r.hasMeta = int64(p.s.T.Depth[v]), true
			p.forward(v, r)
		}
	}
	ctx.ForRecv(func(m congest.Incoming) {
		if m.Msg.Kind != kindBlockSetup {
			return
		}
		r := p.s.add(v, m.Msg.A)
		if r.hasMeta {
			return
		}
		r.rootDepth, r.hasMeta = m.Msg.B, true
		p.forward(v, r)
	})
	return p.flush(ctx, v)
}

// forward queues r's root depth on each of v's down-ports for r's part.
func (p *setupProc) forward(v int, r *record) {
	for _, q := range r.down {
		p.enqueue(v, q, congest.Message{Kind: kindBlockSetup, A: r.part, B: r.rootDepth})
	}
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
	for v := range s.parts {
		c = max(c, s.ups(v))
	}
	return c
}

// ups counts the parts whose shortcut contains v's parent edge.
func (s *Shortcut) ups(v int) int {
	c := 0
	for _, r := range s.parts[v] {
		if r.up {
			c++
		}
	}
	return c
}

// BlockCounts returns (engine-side) the number of blocks of each part that
// has a nonempty shortcut, keyed by part ID: the connected components of
// the forest (V(H_i), H_i), Definition 2.3. Each block is a subtree of T
// with exactly one root, so with every claim mirrored by its down-port the
// count is the number of block roots.
func (s *Shortcut) BlockCounts() map[int64]int {
	out := make(map[int64]int)
	for v := range s.parts {
		for _, r := range s.parts[v] {
			if r.isRoot() {
				out[r.part]++
			}
		}
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
