package domset

import (
	"fmt"
	"math"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
)

const kindClaim int32 = 150

// Result is a k-dominating set as node-local knowledge: each node knows
// whether it is a center and the ID of the center dominating it.
type Result struct {
	IsCenter []bool
	CenterID []int64
	Size     int
}

// KDominatingSet computes a k-dominating set by sampling: each node
// self-elects with probability min(1, 2·ln(n)/k); an O(k)-round wave has
// every node adopt the first center heard; unreached nodes (a 1/poly(n)
// event) become centers themselves.
func KDominatingSet(e *core.Engine, k int64) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("domset: k must be positive, got %d", k)
	}
	n := e.N
	res := &Result{
		IsCenter: make([]bool, n),
		CenterID: make([]int64, n),
	}
	for v := range res.CenterID {
		res.CenterID[v] = -1
	}
	prob := math.Min(1, 2*math.Log(float64(n)+2)/float64(k))
	wp := &waveProc{res: res, k: k, prob: prob, claimed: e.Net.Scratch().Bools(n)}
	if _, err := e.Net.RunNodes("domset/wave", wp, e.Net.RoundCap()); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if res.CenterID[v] < 0 {
			res.IsCenter[v] = true
			res.CenterID[v] = e.Net.ID(v)
		}
		if res.IsCenter[v] {
			res.Size++
		}
	}
	return res, nil
}

// waveProc: self-elect, then adopt the first center ID heard and forward
// the wave while within radius k. Shared across nodes; per-node state is
// the result arrays plus the flat claimed flags.
type waveProc struct {
	res     *Result
	k       int64
	prob    float64
	claimed []bool
}

// Step implements congest.NodeProc.
func (w *waveProc) Step(ctx *congest.Ctx, v int) bool {
	forward := func(depth int64) {
		if depth >= w.k {
			return
		}
		for q := 0; q < ctx.Degree(); q++ {
			if ctx.CanSend(q) {
				ctx.Send(q, congest.Message{Kind: kindClaim, A: w.res.CenterID[v], B: depth + 1})
			}
		}
	}
	if ctx.Round() == 0 && ctx.Rand().Float64() < w.prob {
		w.claimed[v] = true
		w.res.IsCenter[v] = true
		w.res.CenterID[v] = ctx.ID()
		forward(0)
	}
	ctx.ForRecv(func(m congest.Incoming) {
		if w.claimed[v] {
			return
		}
		w.claimed[v] = true
		w.res.CenterID[v] = m.Msg.A
		forward(m.Msg.B)
	})
	return false
}

// ConnectedDominatingSet returns the internal (non-leaf) nodes of the
// engine's BFS tree: a valid CDS, known locally (a node is internal iff it
// has tree children), at zero extra communication.
func ConnectedDominatingSet(e *core.Engine) *Result {
	n := e.N
	res := &Result{
		IsCenter: make([]bool, n),
		CenterID: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		res.IsCenter[v] = len(e.Tree.ChildPorts[v]) > 0
		if res.IsCenter[v] {
			res.Size++
		}
	}
	// Singleton graph: the root alone dominates itself.
	if n == 1 {
		res.IsCenter[0] = true
		res.Size = 1
	}
	for v := 0; v < n; v++ {
		if res.IsCenter[v] {
			res.CenterID[v] = e.Net.ID(v)
		} else {
			res.CenterID[v] = e.Net.ID(e.Tree.ParentNode[v])
		}
	}
	return res
}
