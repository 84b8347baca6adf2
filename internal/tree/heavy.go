package tree

import (
	"fmt"

	"shortcutpa/internal/congest"
)

// kindHeavyMark is the heavy-mark round's message kind.
const kindHeavyMark int32 = 10

// HeavyPaths is the heavy-path decomposition of a BFS tree (Definition 6.5):
// an edge (parent u, child v) is heavy iff v's subtree holds more than half
// of u's subtree; heavy edges form vertex-disjoint upward chains ("heavy
// paths"; every node is on exactly one, possibly as a singleton). Any
// leaf-to-root path crosses at most log2(n) light edges, so at most log2(n)+1
// heavy paths. Entry v of each slice is node v's local knowledge.
type HeavyPaths struct {
	ParentHeavy    []bool  // v's parent edge is heavy
	HeavyChildPort []int   // port to v's heavy child; -1 if none
	Index          []int64 // 1-based position from the path's bottom ("source")
	Length         []int64 // number of nodes on v's path
	TopID          []int64 // ID of the path's top node (the "sink"), = path ID
	Level          []int   // light level of v's path (0: no incoming light edges)
	MaxLevel       int     // maximum Level over all paths
}

// IsTop reports whether v is the top (sink) node of its heavy path.
func (h *HeavyPaths) IsTop(v int) bool { return !h.ParentHeavy[v] }

// IsBottom reports whether v is the bottom (source) node of its heavy path.
func (h *HeavyPaths) IsBottom(v int) bool { return h.HeavyChildPort[v] < 0 }

// UpPathPort returns the port toward the next node up v's path, or -1 at the
// top.
func (h *HeavyPaths) UpPathPort(t *BFSTree, v int) int {
	if h.ParentHeavy[v] {
		return t.ParentPort[v]
	}
	return -1
}

// DecomposeHeavyPaths runs the heavy-path decomposition on t: subtree sizes
// (convergecast), heavy-child marking, light-level convergecast, bottom-up
// numbering along chains, and a top-down pass distributing (top ID, length,
// level) to all chain members. The last two walk the heavy-chain forest, a
// temporary Forest whose trees are the chains. O(D) rounds per phase
// (chains are vertex-disjoint, so numbering pipelines without congestion),
// O(n) messages per phase.
func DecomposeHeavyPaths(net *congest.Network, t *BFSTree) (*HeavyPaths, error) {
	n := net.N()
	h := &HeavyPaths{
		ParentHeavy:    make([]bool, n),
		HeavyChildPort: make([]int, n),
		Index:          make([]int64, n),
		Length:         make([]int64, n),
		TopID:          make([]int64, n),
		Level:          make([]int, n),
	}

	// Phase 1: subtree sizes, a sum of ones up t; parents keep their
	// largest child's size and port, and the heavy child is that child if
	// it holds more than half of the subtree (no other child can).
	ones := make([]congest.Val, n)
	maxChild := make([]int64, n)
	for v := 0; v < n; v++ {
		ones[v] = congest.Val{A: 1}
		h.HeavyChildPort[v] = -1
	}
	sizes, err := t.Up(net, "tree/convergecast", ones, congest.SumPair, func(v, port int, c congest.Val) congest.Val {
		if c.A > maxChild[v] {
			maxChild[v], h.HeavyChildPort[v] = c.A, port
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if 2*maxChild[v] <= sizes[v].A {
			h.HeavyChildPort[v] = -1
		}
	}

	// Phase 2: tell the heavy child its parent edge is heavy.
	if _, err := net.RunNodes("tree/heavy-mark", &heavyMarkProc{h: h}, net.RoundCap()); err != nil {
		return nil, err
	}

	// Phase 3: light levels. PL(v) = max over children c of PL(c) + (edge
	// light ? 1 : 0); a path's level is PL at its top. pl keeps the running
	// maximum rather than Up's folds, so a node whose report from some
	// child never arrived (a fault) keeps what the others told it.
	pl := make([]int64, n)
	_, err = t.Up(net, "tree/heavy-level", make([]congest.Val, n), congest.MaxPair,
		func(v, port int, c congest.Val) congest.Val {
			if port != h.HeavyChildPort[v] {
				c.A++ // light in-edge: the hanging path sits one level below
			}
			pl[v] = max(pl[v], c.A)
			return c
		})
	if err != nil {
		return nil, err
	}

	// Phase 4: number chains bottom-up: an index is the node count from the
	// chain's bottom, a sum of ones up the heavy-chain forest. A node's
	// chain children are the one-entry window of HeavyChildPort at v.
	chains := Forest{ParentPort: make([]int, n), ChildPorts: make([][]int, n)}
	for v := 0; v < n; v++ {
		chains.ParentPort[v] = h.UpPathPort(t, v)
		if h.HeavyChildPort[v] >= 0 {
			chains.ChildPorts[v] = h.HeavyChildPort[v : v+1]
		}
	}
	idx, err := chains.Up(net, "tree/heavy-index", ones, congest.SumPair, nil)
	if err != nil {
		return nil, err
	}
	for v := range idx {
		h.Index[v] = idx[v].A
	}

	// Phase 5: tops distribute (top ID, length, level) down their chains.
	err = chains.Down(net, "tree/heavy-info",
		func(v int) (congest.Message, bool) {
			return congest.Message{A: net.ID(v), B: h.Index[v], C: pl[v]}, h.IsTop(v)
		},
		func(v int, m congest.Message) congest.Message {
			h.TopID[v], h.Length[v], h.Level[v] = m.A, m.B, int(m.C)
			return m
		})
	if err != nil {
		return nil, err
	}

	for v := 0; v < n; v++ {
		if h.Level[v] > h.MaxLevel {
			h.MaxLevel = h.Level[v]
		}
	}
	if err := h.sanityCheck(t); err != nil {
		return nil, err
	}
	return h, nil
}

// heavyMarkProc tells each heavy child that its parent edge is heavy.
type heavyMarkProc struct {
	h *HeavyPaths
}

// Step implements congest.NodeProc.
func (p *heavyMarkProc) Step(ctx *congest.Ctx, v int) bool {
	if ctx.Round() == 0 && p.h.HeavyChildPort[v] >= 0 {
		ctx.Send(p.h.HeavyChildPort[v], congest.Message{Kind: kindHeavyMark})
	}
	ctx.ForRecv(func(congest.Incoming) {
		p.h.ParentHeavy[v] = true
	})
	return false
}

// sanityCheck verifies structural invariants of the decomposition using
// engine-side global knowledge (test/diagnostic aid; not part of the model).
func (h *HeavyPaths) sanityCheck(t *BFSTree) error {
	for v := range h.Index {
		if h.Index[v] < 1 || h.Index[v] > h.Length[v] {
			return fmt.Errorf("tree: node %d has index %d of path length %d", v, h.Index[v], h.Length[v])
		}
		if h.IsTop(v) && h.Index[v] != h.Length[v] {
			return fmt.Errorf("tree: top node %d has index %d != length %d", v, h.Index[v], h.Length[v])
		}
	}
	return nil
}
