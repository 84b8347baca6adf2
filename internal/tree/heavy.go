package tree

import (
	"fmt"

	"shortcutpa/internal/congest"
)

// Message kinds for the heavy-path protocols.
const (
	kindHeavyMark int32 = iota + 10
	kindLevelUp
	kindIndexUp
	kindPathDown
)

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
// level) to all chain members. O(D) rounds per phase (chains are
// vertex-disjoint, so numbering pipelines without congestion), O(n) messages
// per phase.
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

	// Phase 1: subtree sizes; parents record per-child sizes and pick the
	// heavy child locally (at most one child can exceed half the subtree).
	childSize := make([]map[int]int64, n)
	for v := range childSize {
		childSize[v] = make(map[int]int64, len(t.ChildPorts[v]))
	}
	sizes, err := SubtreeSizes(net, t, func(v, port int, size int64) {
		childSize[v][port] = size
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		h.HeavyChildPort[v] = -1
		for port, cs := range childSize[v] {
			if 2*cs > sizes[v] {
				h.HeavyChildPort[v] = port
			}
		}
	}

	// Phase 2: tell the heavy child its parent edge is heavy.
	if _, err := net.RunNodes("tree/heavy-mark", &heavyMarkProc{h: h}, net.RoundCap()); err != nil {
		return nil, err
	}

	// Phase 3: light-level convergecast. PL(v) = max over children c of
	// PL(c) + (edge light ? 1 : 0); a path's level is PL at its top.
	pl := make([]int64, n)
	if err := runLevelConvergecast(net, t, h, pl); err != nil {
		return nil, err
	}

	// Phase 4: number chains bottom-up: bottoms take index 1 and indices
	// propagate up heavy edges.
	iup := &indexUpProc{t: t, h: h, fired: make([]bool, n)}
	if _, err := net.RunNodes("tree/heavy-index", iup, net.RoundCap()); err != nil {
		return nil, err
	}

	// Phase 5: tops distribute (top ID, length, level) down their chains.
	if _, err := net.RunNodes("tree/heavy-info", &pathInfoProc{h: h, pl: pl}, net.RoundCap()); err != nil {
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

// levelProc computes PL bottom-up with the +1-on-light-edges rule
// (waiting == -1 marks a node that already fired).
type levelProc struct {
	t       *BFSTree
	h       *HeavyPaths
	pl      []int64
	waiting []int
}

// Step implements congest.NodeProc.
func (p *levelProc) Step(ctx *congest.Ctx, v int) bool {
	ctx.ForRecv(func(in congest.Incoming) {
		child := in.Msg.A
		if in.Port != p.h.HeavyChildPort[v] {
			child++ // light in-edge: the hanging path sits one level below
		}
		if child > p.pl[v] {
			p.pl[v] = child
		}
		p.waiting[v]--
	})
	if p.waiting[v] == 0 {
		p.waiting[v] = -1
		if p.t.ParentPort[v] >= 0 {
			ctx.Send(p.t.ParentPort[v], congest.Message{Kind: kindLevelUp, A: p.pl[v]})
		}
	}
	return false
}

// runLevelConvergecast computes PL bottom-up with the +1-on-light-edges rule.
func runLevelConvergecast(net *congest.Network, t *BFSTree, h *HeavyPaths, pl []int64) error {
	n := net.N()
	lp := &levelProc{t: t, h: h, pl: pl, waiting: make([]int, n)}
	for v := 0; v < n; v++ {
		lp.waiting[v] = len(t.ChildPorts[v])
	}
	_, err := net.RunNodes("tree/heavy-level", lp, net.RoundCap())
	return err
}

// indexUpProc numbers a chain: bottoms fire index 1, heavy parents increment.
type indexUpProc struct {
	t     *BFSTree
	h     *HeavyPaths
	fired []bool
}

// Step implements congest.NodeProc.
func (p *indexUpProc) Step(ctx *congest.Ctx, v int) bool {
	fire := func(idx int64) {
		p.h.Index[v] = idx
		p.fired[v] = true
		if p.h.ParentHeavy[v] {
			ctx.Send(p.t.ParentPort[v], congest.Message{Kind: kindIndexUp, A: idx})
		}
	}
	if ctx.Round() == 0 && p.h.IsBottom(v) {
		fire(1)
	}
	ctx.ForRecv(func(in congest.Incoming) {
		if !p.fired[v] {
			fire(in.Msg.A + 1)
		}
	})
	return false
}

// pathInfoProc distributes (top ID, length, level) from each path top down
// its chain.
type pathInfoProc struct {
	h  *HeavyPaths
	pl []int64
}

// Step implements congest.NodeProc.
func (p *pathInfoProc) Step(ctx *congest.Ctx, v int) bool {
	h := p.h
	if ctx.Round() == 0 && h.IsTop(v) {
		h.TopID[v] = ctx.ID()
		h.Length[v] = h.Index[v]
		h.Level[v] = int(p.pl[v])
		if q := h.HeavyChildPort[v]; q >= 0 {
			ctx.Send(q, congest.Message{Kind: kindPathDown, A: h.TopID[v], B: h.Length[v], C: p.pl[v]})
		}
	}
	ctx.ForRecv(func(in congest.Incoming) {
		h.TopID[v] = in.Msg.A
		h.Length[v] = in.Msg.B
		h.Level[v] = int(in.Msg.C)
		if q := h.HeavyChildPort[v]; q >= 0 {
			ctx.Send(q, in.Msg)
		}
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
