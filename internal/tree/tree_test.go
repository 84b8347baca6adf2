package tree

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

func buildTree(t *testing.T, g *graph.Graph, seed int64) (*congest.Network, *BFSTree) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	leader, err := ElectLeader(net)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildBFS(net, leader)
	if err != nil {
		t.Fatal(err)
	}
	return net, bt
}

// TestElectLeaderPicksGlobalMinID checks the elected leader against an
// offline argmin over the network's IDs, on a torus, a power law (hub
// skew) and the paper's grid-star, at three seeds each.
func TestElectLeaderPicksGlobalMinID(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", graph.Torus(9, 11)},
		{"powerlaw", graph.PowerLaw(300, 4, 2.5, rand.New(rand.NewSource(17)))},
		{"gridstar", graph.GridStar(5, 12)},
	}
	for _, tc := range graphs {
		for _, seed := range []int64{3, 11, 29} {
			net := congest.NewNetwork(tc.g, seed)
			want := 0
			for v := 1; v < tc.g.N(); v++ {
				if net.ID(v) < net.ID(want) {
					want = v
				}
			}
			leader, err := ElectLeader(net)
			if err != nil {
				t.Fatalf("%s/seed=%d: %v", tc.name, seed, err)
			}
			if leader != want {
				t.Fatalf("%s/seed=%d: leader %d (ID %d), argmin ID is node %d (ID %d)",
					tc.name, seed, leader, net.ID(leader), want, net.ID(want))
			}
		}
	}
}

// TestElectLeaderEmptyNetworkErrors: a 0-node network has no leader to
// elect, which must surface as an error rather than an index panic.
func TestElectLeaderEmptyNetworkErrors(t *testing.T) {
	net := congest.NewNetwork(graph.MustNew(0, nil), 1)
	if leader, err := ElectLeader(net); err == nil {
		t.Fatalf("ElectLeader on an empty network = %d, want an error", leader)
	}
}

func TestElectLeaderRoundsScaleWithDiameter(t *testing.T) {
	g := graph.Path(64)
	net := congest.NewNetwork(g, 5)
	before := net.Total().Rounds
	if _, err := ElectLeader(net); err != nil {
		t.Fatal(err)
	}
	rounds := net.Total().Rounds - before
	if rounds > int64(2*g.N()) {
		t.Fatalf("election took %d rounds on P%d, want O(D)", rounds, g.N())
	}
}

func TestBFSTreeMatchesOfflineBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(60, 0.06, rng)
		net, bt := buildTree(t, g, int64(trial))
		dist := g.BFSFrom(bt.Root)
		for v := 0; v < g.N(); v++ {
			if bt.Depth[v] != dist[v] {
				t.Fatalf("trial %d node %d: depth %d, BFS dist %d", trial, v, bt.Depth[v], dist[v])
			}
			if v != bt.Root {
				pu := bt.ParentNode[v]
				if dist[pu] != dist[v]-1 {
					t.Fatalf("trial %d node %d: parent %d not one level up", trial, v, pu)
				}
			}
		}
		_ = net
	}
}

func TestBFSChildrenMatchParents(t *testing.T) {
	g := graph.Grid(5, 8)
	_, bt := buildTree(t, g, 3)
	// Count children: every non-root node is a child of exactly one parent.
	total := 0
	for v := 0; v < g.N(); v++ {
		total += len(bt.ChildPorts[v])
		for _, p := range bt.ChildPorts[v] {
			c := g.Neighbor(v, p)
			if bt.ParentNode[c] != v {
				t.Fatalf("node %d lists %d as child, but %d's parent is %d", v, c, c, bt.ParentNode[c])
			}
		}
	}
	if total != g.N()-1 {
		t.Fatalf("children total %d, want %d", total, g.N()-1)
	}
}

func TestConvergecastComputesSum(t *testing.T) {
	g := graph.Grid(4, 6)
	net, bt := buildTree(t, g, 7)
	vals := make([]congest.Val, g.N())
	var want int64
	rng := rand.New(rand.NewSource(9))
	for v := range vals {
		vals[v] = congest.Val{A: int64(rng.Intn(100))}
		want += vals[v].A
	}
	sub, err := bt.Up(net, "tree/convergecast", vals, congest.SumPair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub[bt.Root].A != want {
		t.Fatalf("root sum %d, want %d", sub[bt.Root].A, want)
	}
}

func TestConvergecastMinMatchesOffline(t *testing.T) {
	g := graph.CompleteBinaryTree(5)
	net, bt := buildTree(t, g, 13)
	vals := make([]congest.Val, g.N())
	rng := rand.New(rand.NewSource(17))
	want := congest.Val{A: 1 << 60}
	for v := range vals {
		vals[v] = congest.Val{A: int64(rng.Intn(1000)), B: int64(v)}
		want = congest.MinPair(want, vals[v])
	}
	sub, err := bt.Up(net, "tree/convergecast", vals, congest.MinPair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub[bt.Root] != want {
		t.Fatalf("root min %+v, want %+v", sub[bt.Root], want)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	g := graph.Lollipop(30, 6)
	net, bt := buildTree(t, g, 19)
	got := make([]congest.Val, g.N())
	err := bt.Down(net, "tree/broadcast",
		func(v int) (congest.Message, bool) { return congest.Message{A: 424242, B: -1}, v == bt.Root },
		func(v int, m congest.Message) congest.Message {
			got[v] = congest.Val{A: m.A, B: m.B}
			return m
		})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != (congest.Val{A: 424242, B: -1}) {
			t.Fatalf("node %d got %+v", v, got[v])
		}
	}
}

func TestSubtreeSizes(t *testing.T) {
	g := graph.Path(9)
	net, bt := buildTree(t, g, 23)
	ones := make([]congest.Val, g.N())
	for v := range ones {
		ones[v] = congest.Val{A: 1}
	}
	sizes, err := bt.Up(net, "tree/convergecast", ones, congest.SumPair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[bt.Root].A != int64(g.N()) {
		t.Fatalf("root subtree size %d, want %d", sizes[bt.Root].A, g.N())
	}
	// Each node's size = 1 + sum of children's sizes.
	for v := 0; v < g.N(); v++ {
		var sum int64 = 1
		for _, p := range bt.ChildPorts[v] {
			sum += sizes[g.Neighbor(v, p)].A
		}
		if sizes[v].A != sum {
			t.Fatalf("node %d size %d, want %d", v, sizes[v].A, sum)
		}
	}
}

func TestHeavyPathInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*graph.Graph{
		graph.Path(40),
		graph.Grid(6, 7),
		graph.CompleteBinaryTree(6),
		graph.RandomTree(80, rng),
		graph.RandomConnected(70, 0.05, rng),
	}
	for gi, g := range graphs {
		net, bt := buildTree(t, g, int64(41+gi))
		h, err := DecomposeHeavyPaths(net, bt)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		n := g.N()
		// (a) Each node has at most one heavy child, and heavy marks agree
		// across the edge.
		for v := 0; v < n; v++ {
			if p := h.HeavyChildPort[v]; p >= 0 {
				c := g.Neighbor(v, p)
				if !h.ParentHeavy[c] {
					t.Fatalf("graph %d: heavy child %d of %d not marked", gi, c, v)
				}
			}
		}
		// (b) Path members agree on TopID and Length, and indices along a
		// chain increase by one upward.
		for v := 0; v < n; v++ {
			if h.ParentHeavy[v] {
				u := bt.ParentNode[v]
				if h.TopID[u] != h.TopID[v] || h.Length[u] != h.Length[v] {
					t.Fatalf("graph %d: chain info mismatch across heavy edge %d-%d", gi, v, u)
				}
				if h.Index[u] != h.Index[v]+1 {
					t.Fatalf("graph %d: index %d above %d on heavy edge %d-%d", gi, h.Index[u], h.Index[v], v, u)
				}
				if h.Level[u] != h.Level[v] {
					t.Fatalf("graph %d: level mismatch on chain %d-%d", gi, v, u)
				}
			}
		}
		// (c) Any leaf-to-root walk crosses at most log2(n) light edges.
		limit := 0
		for s := 1; s < n; s *= 2 {
			limit++
		}
		for v := 0; v < n; v++ {
			light := 0
			for u := v; u != bt.Root; u = bt.ParentNode[u] {
				if !h.ParentHeavy[u] {
					light++
				}
			}
			if light > limit {
				t.Fatalf("graph %d: node %d crosses %d light edges, limit %d", gi, v, light, limit)
			}
		}
		// (d) Levels: a path with no light in-edges has level 0; levels of
		// nested paths strictly increase; MaxLevel <= log2(n).
		if h.MaxLevel > limit {
			t.Fatalf("graph %d: MaxLevel %d exceeds log2(n)=%d", gi, h.MaxLevel, limit)
		}
		for v := 0; v < n; v++ {
			if v == bt.Root {
				continue
			}
			u := bt.ParentNode[v]
			if !h.ParentHeavy[v] && h.Level[u] <= h.Level[v] {
				t.Fatalf("graph %d: light edge %d->%d has levels %d -> %d, want increase",
					gi, v, u, h.Level[v], h.Level[u])
			}
		}
	}
}

func TestHeavyPathOnPathGraphIsOneChain(t *testing.T) {
	g := graph.Path(16)
	net, bt := buildTree(t, g, 57)
	h, err := DecomposeHeavyPaths(net, bt)
	if err != nil {
		t.Fatal(err)
	}
	// A path rooted at one end decomposes into a single heavy chain (every
	// internal edge has a subtree holding more than half the parent's).
	if bt.Root != 0 && bt.Root != g.N()-1 {
		t.Skip("leader not at an end; chain-count claim only holds for end roots")
	}
	tops := 0
	for v := 0; v < g.N(); v++ {
		if h.IsTop(v) {
			tops++
		}
	}
	if tops != 1 {
		t.Fatalf("path graph decomposed into %d chains, want 1", tops)
	}
}

// TestForestWalks grows a capped two-source BFS forest on a grid with one
// node left out, and checks the three walks against offline answers: Grow
// joins exactly the nodes within the radius of a root (by BFS distance
// avoiding the skipped node) at that distance, with mirrored parent and
// child ports and each root's label; Up's folds are subtree sizes; Down's
// per-hop messages recompute the depths.
func TestForestWalks(t *testing.T) {
	const rows, cols, radius, skipped = 6, 7, 4, 9
	g := graph.Grid(rows, cols)
	n := g.N()
	net := congest.NewNetwork(g, 3)
	roots := []int{0, n - 1}
	isRoot := func(v int) bool { return v == roots[0] || v == roots[1] }
	f := &Forest{ParentPort: make([]int, n), ChildPorts: make([][]int, n), Depth: make([]int, n)}
	label := make([]int64, n)
	skip := make([]bool, n)
	skip[skipped] = true
	all := make([]bool, len(g.CSR().PortTo))
	for i := range all {
		all[i] = true
	}
	for v := range f.ParentPort {
		f.ParentPort[v], f.Depth[v], label[v] = -1, -1, net.ID(v)
	}
	joined, err := f.Grow(net, "test/grow", Wave{
		Radius: radius,
		Ports:  func(v int) []bool { return all[g.CSR().RowStart[v]:g.CSR().RowStart[v+1]] },
		Start:  func(_ *congest.Ctx, v int) bool { return isRoot(v) },
		Skip:   skip,
		Label:  label,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Offline multi-source BFS around the skipped node.
	dist := make([]int, n)
	for v := range dist {
		dist[v] = -1
	}
	queue := []int{}
	for _, r := range roots {
		dist[r] = 0
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForPorts(v, func(_, u, _ int) bool {
			if dist[u] < 0 && !skip[u] && dist[v] < radius {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	for v := 0; v < n; v++ {
		if joined[v] != (dist[v] >= 0) || (joined[v] && f.Depth[v] != dist[v]) {
			t.Fatalf("node %d: joined %v at depth %d, want distance %d", v, joined[v], f.Depth[v], dist[v])
		}
		if !joined[v] {
			continue
		}
		u := v
		for f.ParentPort[u] >= 0 {
			u = g.Neighbor(u, f.ParentPort[u])
		}
		if !isRoot(u) || label[v] != net.ID(u) {
			t.Fatalf("node %d reaches %d with label %d, want a root's ID %d", v, u, label[v], net.ID(u))
		}
		for _, q := range f.ChildPorts[v] {
			c := g.Neighbor(v, q)
			if g.Neighbor(c, f.ParentPort[c]) != v {
				t.Fatalf("child port %d of node %d not mirrored by %d", q, v, c)
			}
		}
	}

	ones := make([]congest.Val, n)
	for v := range ones {
		ones[v] = congest.Val{A: 1}
	}
	sizes, err := f.Up(net, "test/up", ones, congest.SumPair, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		want := int64(1)
		for _, q := range f.ChildPorts[v] {
			want += sizes[g.Neighbor(v, q)].A
		}
		if sizes[v].A != want {
			t.Fatalf("node %d: Up fold %d, want subtree size %d", v, sizes[v].A, want)
		}
	}

	depth := make([]int, n)
	for v := range depth {
		depth[v] = -1
	}
	err = f.Down(net, "test/down",
		func(v int) (congest.Message, bool) { return congest.Message{}, isRoot(v) },
		func(v int, m congest.Message) congest.Message {
			depth[v] = int(m.A)
			return congest.Message{A: m.A + 1}
		})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if depth[v] != f.Depth[v] {
			t.Fatalf("node %d: Down depth %d, Grow depth %d", v, depth[v], f.Depth[v])
		}
	}
}
