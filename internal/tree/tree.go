package tree

import (
	"fmt"

	"shortcutpa/internal/congest"
)

// Message kinds used by this package's protocols.
const (
	kindElect int32 = iota + 1
	kindJoin
	kindUp
	kindDown
)

// BFSTree is the rooted breadth-first spanning tree. Entry v of each slice
// is knowledge held by node v.
type BFSTree struct {
	Root       int
	ParentPort []int   // port toward parent; -1 at the root
	ParentNode []int   // parent's node index; -1 at the root (engine-side convenience)
	Depth      []int   // hop distance from the root
	ChildPorts [][]int // ports toward children
}

// ElectLeader floods the minimum node ID through the network and returns the
// node holding it. O(D) rounds. With the hashed (random-order) IDs the
// simulator assigns, expected messages are O(m log n) — the paper's
// substrate [27] achieves Õ(m) worst-case; see ARCHITECTURE.md,
// "Substitutions". An empty network has no leader and is an error.
func ElectLeader(net *congest.Network) (int, error) {
	n := net.N()
	if n == 0 {
		return -1, fmt.Errorf("tree: cannot elect a leader on an empty network")
	}
	// Leaf-scoped arena use: minID is consumed before this function returns.
	minID := net.Scratch().Int64s(n)
	for v := 0; v < n; v++ {
		minID[v] = net.ID(v)
	}
	if _, err := net.RunNodes("tree/elect", &electProc{minID: minID}, net.RoundCap()); err != nil {
		return -1, err
	}
	// The leader is the node whose own ID won the flood. Matching on
	// minID[0], not on "holds its own ID", matters under faults: a crash or
	// a dropped edge can leave several nodes holding their own IDs.
	leader := -1
	for v := 0; v < n; v++ {
		if net.ID(v) == minID[0] {
			leader = v
			break
		}
	}
	if leader < 0 {
		return -1, fmt.Errorf("tree: election converged to unknown ID %d", minID[0])
	}
	for v := 0; v < n; v++ {
		if minID[v] != minID[0] {
			return -1, fmt.Errorf("tree: node %d disagrees on leader (disconnected graph?)", v)
		}
	}
	return leader, nil
}

// electProc is the shared min-ID flood: per-node state is the flat minID
// array.
type electProc struct {
	minID []int64
}

// Step implements congest.NodeProc.
func (p *electProc) Step(ctx *congest.Ctx, v int) bool {
	improved := ctx.Round() == 0
	ctx.ForRecv(func(in congest.Incoming) {
		if in.Msg.A < p.minID[v] {
			p.minID[v] = in.Msg.A
			improved = true
		}
	})
	if improved {
		ctx.Broadcast(congest.Message{Kind: kindElect, A: p.minID[v]})
	}
	return false
}

// bfsProc is the shared BFS-tree construction state machine: a node adopts
// the first JOIN it hears (the lowest sender index on ties, the ForRecv
// order) and broadcasts its own JOIN{A: depth, B: own ID, C: parent's ID};
// the root's names no parent (C = -1). A JOIN naming the receiver as parent
// makes its sender a child, so the parent port needs no message of its own.
// Per-node state: the tree under construction plus the flat joined array.
type bfsProc struct {
	t      *BFSTree
	root   int
	joined []bool
}

// Step implements congest.NodeProc.
func (b *bfsProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && v == b.root {
		b.joined[v] = true
		b.t.Depth[v] = 0
		ctx.Broadcast(congest.Message{Kind: kindJoin, A: 0, B: ctx.ID(), C: -1})
		return false
	}
	ctx.ForRecv(func(in congest.Incoming) {
		if in.Msg.C == ctx.ID() {
			b.t.ChildPorts[v] = append(b.t.ChildPorts[v], in.Port)
		}
		if b.joined[v] {
			return
		}
		b.joined[v] = true
		b.t.ParentPort[v] = in.Port
		b.t.Depth[v] = int(in.Msg.A) + 1
		ctx.Broadcast(congest.Message{Kind: kindJoin, A: int64(b.t.Depth[v]), B: ctx.ID(), C: in.Msg.B})
	})
	return false
}

// BuildBFS constructs the BFS tree rooted at root. O(D) rounds, O(m)
// messages (each node broadcasts once).
func BuildBFS(net *congest.Network, root int) (*BFSTree, error) {
	n := net.N()
	t := &BFSTree{
		Root:       root,
		ParentPort: make([]int, n),
		ParentNode: make([]int, n),
		Depth:      make([]int, n),
		ChildPorts: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		t.ParentPort[v] = -1
		t.ParentNode[v] = -1
	}
	bp := &bfsProc{t: t, root: root, joined: make([]bool, n)}
	if _, err := net.RunNodes("tree/bfs", bp, net.RoundCap()); err != nil {
		return nil, err
	}
	g := net.Graph()
	for v := 0; v < n; v++ {
		if v != root {
			if t.ParentPort[v] < 0 {
				return nil, fmt.Errorf("tree: node %d not reached by BFS (disconnected graph?)", v)
			}
			t.ParentNode[v] = g.Neighbor(v, t.ParentPort[v])
		}
	}
	return t, nil
}

// convergeProc aggregates values up the tree: a node sends to its parent
// once all children have reported, combining with f. onChild, if non-nil,
// observes each (child port, child subtree value) pair at the parent.
// Shared across nodes; per-node state is the flat acc/waiting arrays
// (waiting == -1 marks a node that already fired).
type convergeProc struct {
	t       *BFSTree
	f       congest.Combine
	acc     []congest.Val
	waiting []int
	onChild func(v, port int, val congest.Val)
	subtree []congest.Val
}

// Step implements congest.NodeProc.
func (c *convergeProc) Step(ctx *congest.Ctx, v int) bool {
	ctx.ForRecv(func(in congest.Incoming) {
		if in.Msg.Kind != kindUp {
			return
		}
		val := congest.Val{A: in.Msg.A, B: in.Msg.B}
		if c.onChild != nil {
			c.onChild(v, in.Port, val)
		}
		c.acc[v] = c.f(c.acc[v], val)
		c.waiting[v]--
	})
	if c.waiting[v] == 0 {
		c.waiting[v] = -1 // fire once
		c.subtree[v] = c.acc[v]
		if c.t.ParentPort[v] >= 0 {
			ctx.Send(c.t.ParentPort[v], congest.Message{Kind: kindUp, A: c.acc[v].A, B: c.acc[v].B})
		}
	}
	return false
}

// Convergecast aggregates vals up t with f. It returns per-node subtree
// aggregates (entry v = f over v's subtree); the root's entry is the global
// aggregate. O(height) rounds, n-1 messages. onChild, if non-nil, is invoked
// at each parent for every (child port, child subtree aggregate) — local
// knowledge a parent naturally obtains.
func Convergecast(net *congest.Network, t *BFSTree, vals []congest.Val, f congest.Combine,
	onChild func(v, port int, val congest.Val)) ([]congest.Val, error) {
	n := net.N()
	subtree := make([]congest.Val, n)
	cp := &convergeProc{
		t: t, f: f,
		acc:     make([]congest.Val, n),
		waiting: make([]int, n),
		onChild: onChild, subtree: subtree,
	}
	copy(cp.acc, vals)
	for v := 0; v < n; v++ {
		cp.waiting[v] = len(t.ChildPorts[v])
	}
	if _, err := net.RunNodes("tree/convergecast", cp, net.RoundCap()); err != nil {
		return nil, err
	}
	return subtree, nil
}

// Broadcast sends val from the root down t; returns per-node received
// values (all equal to val). O(height) rounds, n-1 messages.
func Broadcast(net *congest.Network, t *BFSTree, val congest.Val) ([]congest.Val, error) {
	n := net.N()
	got := make([]congest.Val, n)
	bp := &broadcastProc{t: t, val: val, got: got}
	if _, err := net.RunNodes("tree/broadcast", bp, net.RoundCap()); err != nil {
		return nil, err
	}
	return got, nil
}

// Global aggregates vals up t with f and broadcasts the root's aggregate
// back down (the tree/convergecast and tree/broadcast phases), so every
// node learns f over all nodes; it returns that aggregate. O(height)
// rounds, 2(n-1) messages.
func Global(net *congest.Network, t *BFSTree, vals []congest.Val, f congest.Combine) (congest.Val, error) {
	sub, err := Convergecast(net, t, vals, f, nil)
	if err != nil {
		return congest.Val{}, err
	}
	if _, err := Broadcast(net, t, sub[t.Root]); err != nil {
		return congest.Val{}, err
	}
	return sub[t.Root], nil
}

// broadcastProc floods val from the root down the tree.
type broadcastProc struct {
	t   *BFSTree
	val congest.Val
	got []congest.Val
}

// Step implements congest.NodeProc.
func (b *broadcastProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && v == b.t.Root {
		b.got[v] = b.val
		for _, p := range b.t.ChildPorts[v] {
			ctx.Send(p, congest.Message{Kind: kindDown, A: b.val.A, B: b.val.B})
		}
	}
	ctx.ForRecv(func(in congest.Incoming) {
		b.got[v] = congest.Val{A: in.Msg.A, B: in.Msg.B}
		for _, p := range b.t.ChildPorts[v] {
			ctx.Send(p, in.Msg)
		}
	})
	return false
}

// SubtreeSizes returns, per node, the size of its subtree in t, and invokes
// onChild per (parent, child port, child subtree size) if non-nil.
func SubtreeSizes(net *congest.Network, t *BFSTree, onChild func(v, port int, size int64)) ([]int64, error) {
	n := net.N()
	vals := make([]congest.Val, n)
	for v := range vals {
		vals[v] = congest.Val{A: 1}
	}
	var hook func(v, port int, val congest.Val)
	if onChild != nil {
		hook = func(v, port int, val congest.Val) { onChild(v, port, val.A) }
	}
	sub, err := Convergecast(net, t, vals, congest.SumPair, hook)
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, n)
	for v := range sub {
		sizes[v] = sub[v].A
	}
	return sizes, nil
}
