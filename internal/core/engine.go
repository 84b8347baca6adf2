package core

import (
	"fmt"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// Mode selects between the paper's randomized and deterministic variants.
type Mode int

// Modes. Randomized achieves Õ(bD+c) rounds w.h.p.; Deterministic achieves
// Õ(b(D+c)) rounds (Theorem 1.2).
const (
	Randomized Mode = iota + 1
	Deterministic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Randomized:
		return "randomized"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Engine binds a network to the global substrate every PA call shares: the
// elected leader's BFS tree T (Section 2.2; all shortcuts are T-restricted)
// and the globally known quantities n and D (distributed to all nodes during
// setup, as synchronous CONGEST algorithms assume).
type Engine struct {
	Net   *congest.Network
	Tree  *tree.BFSTree
	Heavy *tree.HeavyPaths // built on first deterministic construction
	Mode  Mode
	N     int
	D     int64 // BFS-tree height: D <= diameter <= 2D

	budgetCap int64
	router    routerRun // recycled across router runs (router.go)
}

// NewEngine elects a leader, then sets the engine up at it (NewEngineAt).
// Setup costs O(D) rounds and O(m log n) messages and is included in the
// network's accounting under the tree/* and core/setup phases.
func NewEngine(net *congest.Network, mode Mode) (*Engine, error) {
	leader, err := tree.ElectLeader(net, setupBudget(net))
	if err != nil {
		return nil, fmt.Errorf("core: leader election: %w", err)
	}
	return NewEngineAt(net, mode, leader)
}

// NewEngineAt builds the BFS tree from root and distributes n and the tree
// height to all nodes (one convergecast and one broadcast). NewEngine roots
// it at the elected leader; figures whose construction fixes the root call
// it directly (Figure 2a roots the tree at the apex).
func NewEngineAt(net *congest.Network, mode Mode, root int) (*Engine, error) {
	n := net.N()
	cap := setupBudget(net)
	t, err := tree.BuildBFS(net, root, cap)
	if err != nil {
		return nil, fmt.Errorf("core: BFS tree: %w", err)
	}
	// Nodes learn (n, height): a max-depth and count aggregation over the
	// tree.
	vals := make([]congest.Val, n)
	for v := 0; v < n; v++ {
		vals[v] = congest.Val{A: int64(t.Depth[v]), B: 1}
	}
	agg, err := tree.Global(net, t, vals,
		func(x, y congest.Val) congest.Val {
			return congest.Val{A: max(x.A, y.A), B: x.B + y.B}
		}, cap)
	if err != nil {
		return nil, fmt.Errorf("core: setup aggregation: %w", err)
	}
	d := max(agg.A, 1)
	return &Engine{
		Net:       net,
		Tree:      t,
		Mode:      mode,
		N:         n,
		D:         d,
		budgetCap: cap,
	}, nil
}

// setupBudget is the round cap of every setup phase and the doubling
// driver's MaxBudget.
func setupBudget(net *congest.Network) int64 { return int64(16*net.N() + 4096) }

// initialBudget is the starting round/congestion budget for the doubling
// driver (Section 1.3's "simple doubling trick"): order D, doubled until the
// partition's verification passes.
func (e *Engine) initialBudget() int64 {
	return 2*(e.D+1) + 16
}

// MaxBudget is the engine's round cap, 16n+4096: it caps the doubling
// driver and every setup phase, and applications use it for their own
// phases. Pure intra-part spreading covers any connected part within O(n)
// rounds, so exceeding it indicates a bug.
func (e *Engine) MaxBudget() int64 { return e.budgetCap }

// EnsureHeavy builds the heavy-path decomposition on demand (deterministic
// construction substrate).
func (e *Engine) EnsureHeavy() error {
	if e.Heavy != nil {
		return nil
	}
	h, err := tree.DecomposeHeavyPaths(e.Net, e.Tree, e.budgetCap)
	if err != nil {
		return fmt.Errorf("core: heavy paths: %w", err)
	}
	e.Heavy = h
	return nil
}

// requireLeaders verifies the Section 4 assumption that every node knows its
// part leader.
func requireLeaders(in *part.Info) error {
	for v, id := range in.LeaderID {
		if id < 0 {
			return fmt.Errorf("core: node %d has no known part leader (use SolveLeaderless)", v)
		}
	}
	return nil
}
