package shortcut

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/tree"
)

func buildTree(t *testing.T, g *graph.Graph, seed int64) (*congest.Network, *tree.BFSTree) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	leader, err := tree.ElectLeader(net)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := tree.BuildBFS(net, leader)
	if err != nil {
		t.Fatal(err)
	}
	return net, bt
}

// claimPath claims v's rootward tree path for part i, for hops edges,
// mirroring each up-claim with its down-port exactly as the construction
// protocols do.
func claimPath(net *congest.Network, bt *tree.BFSTree, s *Shortcut, v int, i int64, hops int) {
	g := net.Graph()
	for h := 0; h < hops && bt.ParentPort[v] >= 0; h++ {
		if s.HasUp(v, i) {
			// Merged with an existing claim; the rest of the path is shared.
			return
		}
		s.ClaimUp(v, i)
		u := g.Neighbor(v, bt.ParentPort[v])
		s.AddDownPort(u, i, g.PortTo(u, v))
		v = u
	}
}

func TestSetupBlocksSingleChain(t *testing.T) {
	g := graph.Path(10)
	net, bt := buildTree(t, g, 1)
	s := New(bt, g.N())
	// Claim the deepest node's full rootward path for part 7.
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	claimPath(net, bt, s, deepest, 7, g.N())
	if err := SetupBlocks(net, s); err != nil {
		t.Fatal(err)
	}
	if got := s.Congestion(); got != 1 {
		t.Fatalf("congestion = %d, want 1", got)
	}
	if got := s.BlockCounts()[7]; got != 1 {
		t.Fatalf("blocks of part 7 = %d, want 1", got)
	}
	// Every node on the deepest-to-root chain must know the root's depth
	// (0: the claim runs all the way up to the tree root).
	for v := deepest; ; v = bt.ParentNode[v] {
		if !s.OnBlock(v, 7) {
			t.Fatalf("node %d should be on part 7's block", v)
		}
		depth, ok := s.RootDepth(v, 7)
		if !ok {
			t.Fatalf("node %d missing block root depth", v)
		}
		if depth != 0 {
			t.Fatalf("node %d root depth %d, want 0", v, depth)
		}
		if v == bt.Root {
			break
		}
	}
	if err := verifyAgainstTree(net, s); err != nil {
		t.Fatal(err)
	}
}

func TestSetupBlocksDisjointBlocksOfOnePart(t *testing.T) {
	// A star of three arms: claim partial paths on two arms that do NOT
	// reach the root's edges jointly — build two separate blocks for the
	// same part.
	g := graph.Star(7) // hub 0, leaves 1..6
	net, bt := buildTree(t, g, 3)
	if bt.Root != 0 {
		t.Skip("hub not elected root under this seed; block shapes differ")
	}
	s := New(bt, g.N())
	claimPath(net, bt, s, 1, 9, 1) // edge 1-0
	claimPath(net, bt, s, 2, 9, 1) // edge 2-0
	// Those two claims share the hub: one block. Another part claims a
	// single disjoint edge.
	claimPath(net, bt, s, 3, 11, 1)
	if err := SetupBlocks(net, s); err != nil {
		t.Fatal(err)
	}
	counts := s.BlockCounts()
	if counts[9] != 1 {
		t.Fatalf("part 9 blocks = %d, want 1 (claims share the hub)", counts[9])
	}
	if counts[11] != 1 {
		t.Fatalf("part 11 blocks = %d, want 1", counts[11])
	}
	if got := s.Congestion(); got != 1 {
		t.Fatalf("congestion = %d, want 1", got)
	}
	// Hub is the block root for both parts.
	if !s.IsBlockRoot(0, 9) || !s.IsBlockRoot(0, 11) {
		t.Fatal("hub should be block root for both parts")
	}
}

func TestSetupBlocksMultiPartCongestion(t *testing.T) {
	g := graph.Path(12)
	net, bt := buildTree(t, g, 5)
	s := New(bt, g.N())
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	// Three parts claim overlapping rootward paths from the deepest node.
	for _, i := range []int64{100, 200, 300} {
		claimPath(net, bt, s, deepest, i, 5)
	}
	if err := SetupBlocks(net, s); err != nil {
		t.Fatal(err)
	}
	if got := s.Congestion(); got != 3 {
		t.Fatalf("congestion = %d, want 3", got)
	}
	for _, i := range []int64{100, 200, 300} {
		if got := s.BlockCounts()[i]; got != 1 {
			t.Fatalf("part %d blocks = %d, want 1", i, got)
		}
	}
	if err := verifyAgainstTree(net, s); err != nil {
		t.Fatal(err)
	}
}

func TestSetupBlocksRandomizedProperty(t *testing.T) {
	// Property: after setup, for every part, all members of one component
	// share the same root depth, the root really is the component's
	// minimum-depth member, and BlockCounts counts the components.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(60, 0.05, rng)
		net, bt := buildTree(t, g, int64(trial+20))
		s := New(bt, g.N())
		for i := int64(1); i <= 6; i++ {
			for k := 0; k < 3; k++ {
				claimPath(net, bt, s, rng.Intn(g.N()), i*1000, 1+rng.Intn(8))
			}
		}
		if err := SetupBlocks(net, s); err != nil {
			t.Fatal(err)
		}
		if err := verifyAgainstTree(net, s); err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 6; i++ {
			pid := i * 1000
			verifyBlockMeta(t, net, bt, s, pid)
		}
		if s.TotalEdges() == 0 {
			t.Fatal("no edges were claimed")
		}
	}
}

// verifyBlockMeta cross-checks the distributed root depths and BlockCounts
// against an offline component computation.
func verifyBlockMeta(t *testing.T, net *congest.Network, bt *tree.BFSTree, s *Shortcut, pid int64) {
	t.Helper()
	n := net.N()
	// Offline components of (V(H_pid), H_pid).
	comp := make([]int, n)
	for v := range comp {
		comp[v] = -1
	}
	changed := true
	next := 0
	for v := 0; v < n; v++ {
		if s.OnBlock(v, pid) && comp[v] < 0 {
			comp[v] = next
			next++
		}
	}
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if !s.HasUp(v, pid) {
				continue
			}
			u := bt.ParentNode[v]
			lo := min(comp[v], comp[u])
			if comp[v] != lo || comp[u] != lo {
				comp[v], comp[u] = lo, lo
				changed = true
			}
		}
	}
	// Within a component: same root depth, that of the min-depth member.
	type agg struct {
		minDepth int
		depths   map[int64]struct{}
	}
	byComp := make(map[int]*agg)
	for v := 0; v < n; v++ {
		if comp[v] < 0 {
			continue
		}
		a := byComp[comp[v]]
		if a == nil {
			a = &agg{minDepth: 1 << 30, depths: make(map[int64]struct{})}
			byComp[comp[v]] = a
		}
		a.minDepth = min(a.minDepth, bt.Depth[v])
		d, ok := s.RootDepth(v, pid)
		if !ok {
			t.Fatalf("part %d: node %d on block but missing root depth", pid, v)
		}
		a.depths[d] = struct{}{}
	}
	for c, a := range byComp {
		if len(a.depths) != 1 {
			t.Fatalf("part %d component %d has %d distinct root depths", pid, c, len(a.depths))
		}
		for d := range a.depths {
			if d != int64(a.minDepth) {
				t.Fatalf("part %d component %d root depth %d, want %d", pid, c, d, a.minDepth)
			}
		}
	}
	if got := s.BlockCounts()[pid]; got != len(byComp) {
		t.Fatalf("part %d: BlockCounts = %d, offline components = %d", pid, got, len(byComp))
	}
}

func TestDropPart(t *testing.T) {
	g := graph.Path(8)
	net, bt := buildTree(t, g, 7)
	s := New(bt, g.N())
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	claimPath(net, bt, s, deepest, 1, 3)
	claimPath(net, bt, s, deepest, 2, 3)
	s.DropPart(1)
	for v := 0; v < g.N(); v++ {
		if s.OnBlock(v, 1) || s.HasUp(v, 1) {
			t.Fatalf("node %d still holds dropped part 1", v)
		}
	}
	if s.Congestion() != 1 {
		t.Fatalf("congestion after drop = %d, want 1", s.Congestion())
	}
	if _, ok := s.BlockCounts()[1]; ok {
		t.Fatal("dropped part still has blocks")
	}
	if _, ok := s.BlockCounts()[2]; !ok {
		t.Fatal("surviving part lost its blocks")
	}
}

// verifyAgainstTree checks structural invariants engine-side: every
// up-claim is mirrored by the parent's down-port for the same edge, and
// only nodes on a block hold a root depth for it.
func verifyAgainstTree(net *congest.Network, s *Shortcut) error {
	g := net.Graph()
	for v := range s.parts {
		for _, r := range s.parts[v] {
			if r.hasMeta && !s.OnBlock(v, r.part) {
				return fmt.Errorf("shortcut: node %d has a root depth for part %d but is off-block", v, r.part)
			}
			if !r.up {
				continue
			}
			pp := s.T.ParentPort[v]
			if pp < 0 {
				return fmt.Errorf("shortcut: root has an up-claim for part %d", r.part)
			}
			// The edge v-u is unique, so the mirrored down-port must be
			// exactly the CSR-materialized reverse port of pp.
			u := g.Neighbor(v, pp)
			if !slices.Contains(s.DownPorts(u, r.part), g.ReversePort(v, pp)) {
				return fmt.Errorf("shortcut: claim %d->%d for part %d not mirrored", v, u, r.part)
			}
		}
	}
	return nil
}
