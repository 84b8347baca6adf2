package tree

import (
	"fmt"

	"shortcutpa/internal/congest"
)

// kindJoin is the BFS-tree construction's message kind.
const kindJoin int32 = 2

// BFSTree is the rooted breadth-first spanning tree: a one-tree Forest
// (Depth is the hop distance from the root). Entry v of each slice is
// knowledge held by node v.
type BFSTree struct {
	Forest
	Root       int
	ParentNode []int // parent's node index; -1 at the root (engine-side convenience)
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
	minID := make([]int64, n)
	for v := 0; v < n; v++ {
		minID[v] = net.ID(v)
	}
	if err := Flood(net, "tree/elect", minID, nil, nil, nil); err != nil {
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
		Forest: Forest{
			ParentPort: make([]int, n),
			ChildPorts: make([][]int, n),
			Depth:      make([]int, n),
		},
		Root:       root,
		ParentNode: make([]int, n),
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

// Global aggregates vals up t with f and broadcasts the root's aggregate
// back down (the tree/convergecast and tree/broadcast phases), so every
// node learns f over all nodes; it returns that aggregate. O(height)
// rounds, 2(n-1) messages.
func Global(net *congest.Network, t *BFSTree, vals []congest.Val, f congest.Combine) (congest.Val, error) {
	sub, err := t.Up(net, "tree/convergecast", vals, f, nil)
	if err != nil {
		return congest.Val{}, err
	}
	agg := sub[t.Root]
	err = t.Down(net, "tree/broadcast",
		func(v int) (congest.Message, bool) { return congest.Message{A: agg.A, B: agg.B}, v == t.Root },
		func(_ int, m congest.Message) congest.Message { return m })
	if err != nil {
		return congest.Val{}, err
	}
	return agg, nil
}
