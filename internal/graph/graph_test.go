package graph

import (
	"math/rand"
	"testing"
)

func TestNewRejectsBadEdges(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{name: "out of range", n: 2, edges: []Edge{{U: 0, V: 2, W: 1}}},
		{name: "negative node", n: 2, edges: []Edge{{U: -1, V: 1, W: 1}}},
		{name: "self loop", n: 2, edges: []Edge{{U: 1, V: 1, W: 1}}},
		{name: "zero weight", n: 2, edges: []Edge{{U: 0, V: 1, W: 0}}},
		{name: "duplicate", n: 2, edges: []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.n, tt.edges); err == nil {
				t.Fatalf("New(%d, %v) succeeded, want error", tt.n, tt.edges)
			}
		})
	}
}

func TestNewNegativeNodeCount(t *testing.T) {
	if _, err := New(-1, nil); err == nil {
		t.Fatal("New(-1, nil) succeeded, want error")
	}
}

func TestPortsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomConnected(40, 0.1, rng)
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			u := g.Neighbor(v, p)
			q := g.ReversePort(v, p)
			if q < 0 {
				t.Fatalf("ReversePort(%d,%d) = -1", v, p)
			}
			if got := g.Neighbor(u, q); got != v {
				t.Fatalf("Neighbor(%d,%d) = %d, want %d", u, q, got, v)
			}
			if g.EdgeIndex(v, p) != g.EdgeIndex(u, q) {
				t.Fatalf("edge index mismatch across ports (%d,%d)/(%d,%d)", v, p, u, q)
			}
			if g.PortTo(v, u) < 0 {
				t.Fatalf("PortTo(%d,%d) = -1 for adjacent nodes", v, u)
			}
		}
	}
}

func TestDegreeSumIsTwiceM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyi(30, 0.2, rng)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum = %d, want %d", sum, 2*g.M())
	}
}

func TestGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name      string
		g         *Graph
		wantN     int
		wantM     int
		wantDiam  int // -1 to skip
		connected bool
	}{
		{name: "path", g: Path(10), wantN: 10, wantM: 9, wantDiam: 9, connected: true},
		{name: "cycle", g: Cycle(10), wantN: 10, wantM: 10, wantDiam: 5, connected: true},
		{name: "star", g: Star(10), wantN: 10, wantM: 9, wantDiam: 2, connected: true},
		{name: "grid", g: Grid(4, 5), wantN: 20, wantM: 31, wantDiam: 7, connected: true},
		{name: "torus", g: Torus(4, 4), wantN: 16, wantM: 32, wantDiam: 4, connected: true},
		{name: "ladder", g: Ladder(6), wantN: 12, wantM: 16, wantDiam: 6, connected: true},
		{name: "cbt", g: CompleteBinaryTree(4), wantN: 15, wantM: 14, wantDiam: 6, connected: true},
		{name: "rtree", g: RandomTree(20, rng), wantN: 20, wantM: 19, wantDiam: -1, connected: true},
		{name: "lollipop", g: Lollipop(10, 4), wantN: 10, wantM: 12, wantDiam: 7, connected: true},
		{name: "gridstar", g: GridStar(3, 4), wantN: 13, wantM: 21, wantDiam: -1, connected: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", tt.g.N(), tt.wantN)
			}
			if tt.g.M() != tt.wantM {
				t.Errorf("M = %d, want %d", tt.g.M(), tt.wantM)
			}
			if tt.connected && !tt.g.Connected() {
				t.Error("graph is disconnected")
			}
			if tt.wantDiam >= 0 {
				if d := tt.g.Diameter(); d != tt.wantDiam {
					t.Errorf("Diameter = %d, want %d", d, tt.wantDiam)
				}
			}
		})
	}
}

func TestKTreeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 2, 3} {
		g := KTree(30, k, rng)
		if !g.Connected() {
			t.Fatalf("KTree(30,%d) disconnected", k)
		}
		// A k-tree on n nodes has k*n - k*(k+1)/2 edges.
		want := k*30 - k*(k+1)/2
		if g.M() != want {
			t.Fatalf("KTree(30,%d) has %d edges, want %d", k, g.M(), want)
		}
	}
}

func TestGridStarDiameterIsConstant(t *testing.T) {
	// The apex keeps the diameter small regardless of grid height... it does
	// not: apex touches only the top row, so diameter ~ rows. Verify the
	// intended Figure 2 shape: diameter grows with rows, not cols.
	dRows := GridStar(12, 4).Diameter()
	dCols := GridStar(4, 12).Diameter()
	if dRows <= dCols {
		t.Fatalf("GridStar diameter should grow with rows: rows-heavy %d, cols-heavy %d", dRows, dCols)
	}
}

func TestComponentsAndBipartite(t *testing.T) {
	g := MustNew(6, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}})
	labels, k := g.SubgraphComponents([]bool{true, true, true})
	if k != 3 {
		t.Fatalf("component count = %d, want 3", k)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Fatalf("bad component labels %v", labels)
	}
	if _, ok := g.IsBipartite(); !ok {
		t.Fatal("forest reported non-bipartite")
	}
	if _, ok := Cycle(5).IsBipartite(); ok {
		t.Fatal("odd cycle reported bipartite")
	}
	if side, ok := Cycle(6).IsBipartite(); !ok {
		t.Fatal("even cycle reported non-bipartite")
	} else {
		for i := 0; i < 6; i++ {
			if side[i] == side[(i+1)%6] {
				t.Fatalf("invalid 2-coloring %v", side)
			}
		}
	}
}

func TestSubgraphComponents(t *testing.T) {
	g := Cycle(6)
	keep := make([]bool, g.M())
	keep[0], keep[1] = true, true // edges 0-1, 1-2
	labels, k := g.SubgraphComponents(keep)
	if k != 4 {
		t.Fatalf("component count = %d, want 4", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("0,1,2 should share a component: %v", labels)
	}
}

func TestKruskalAgainstBruteForce(t *testing.T) {
	// On small random weighted graphs, compare Kruskal's MST weight with a
	// brute-force minimum over all spanning trees (via edge subsets).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := RandomizeWeights(RandomConnected(6, 0.4, rng), 20, rng)
		mst := g.KruskalMST()
		if len(mst) != g.N()-1 {
			t.Fatalf("MST has %d edges, want %d", len(mst), g.N()-1)
		}
		var mstW Weight
		for _, i := range mst {
			mstW += g.Edge(i).W
		}
		best := bruteForceMSTWeight(g)
		if mstW != best {
			t.Fatalf("Kruskal weight %d, brute force %d", mstW, best)
		}
	}
}

func bruteForceMSTWeight(g *Graph) Weight {
	m := g.M()
	n := g.N()
	best := Weight(1 << 60)
	for mask := 0; mask < 1<<m; mask++ {
		if popcount(mask) != n-1 {
			continue
		}
		dsu := NewDSU(n)
		var w Weight
		ok := true
		cnt := 0
		for i := 0; i < m; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			e := g.Edge(i)
			if !dsu.Union(e.U, e.V) {
				ok = false
				break
			}
			w += e.W
			cnt++
		}
		if ok && cnt == n-1 && w < best {
			best = w
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestDijkstraAgainstBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomConnected(50, 0.08, rng)
	dist := g.Dijkstra(0)
	bfs := g.BFSFrom(0)
	for v := 0; v < g.N(); v++ {
		if dist[v] != int64(bfs[v]) {
			t.Fatalf("node %d: dijkstra %d, bfs %d", v, dist[v], bfs[v])
		}
	}
}

func TestStoerWagnerOnKnownGraphs(t *testing.T) {
	// A path's min cut is its lightest edge.
	g := MustNew(4, []Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 7}})
	w, side := g.StoerWagnerMinCut()
	if w != 2 {
		t.Fatalf("path min cut = %d, want 2", w)
	}
	set := make([]bool, g.N())
	for _, v := range side {
		set[v] = true
	}
	if got := g.CutWeight(set); got != 2 {
		t.Fatalf("reported side cuts %d, want 2", got)
	}

	// Two triangles joined by a single light edge.
	g2 := MustNew(6, []Edge{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10}, {U: 0, V: 2, W: 10},
		{U: 3, V: 4, W: 10}, {U: 4, V: 5, W: 10}, {U: 3, V: 5, W: 10},
		{U: 2, V: 3, W: 3},
	})
	w2, _ := g2.StoerWagnerMinCut()
	if w2 != 3 {
		t.Fatalf("barbell min cut = %d, want 3", w2)
	}
}

func TestStoerWagnerAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		g := RandomizeWeights(RandomConnected(7, 0.4, rng), 10, rng)
		got, _ := g.StoerWagnerMinCut()
		want := bruteForceMinCut(g)
		if got != want {
			t.Fatalf("trial %d: StoerWagner %d, brute force %d", trial, got, want)
		}
	}
}

func bruteForceMinCut(g *Graph) Weight {
	n := g.N()
	best := Weight(1 << 60)
	for mask := 1; mask < (1<<n)-1; mask++ {
		side := make([]bool, n)
		for v := 0; v < n; v++ {
			side[v] = mask&(1<<v) != 0
		}
		if w := g.CutWeight(side); w < best {
			best = w
		}
	}
	return best
}

func TestValidatePartition(t *testing.T) {
	g := Path(6)
	if err := ValidatePartition(g, []int{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatalf("contiguous partition rejected: %v", err)
	}
	if err := ValidatePartition(g, []int{0, 1, 0, 1, 0, 1}); err == nil {
		t.Fatal("disconnected partition accepted")
	}
	if err := ValidatePartition(g, []int{0, 0}); err == nil {
		t.Fatal("short partition accepted")
	}
}

func TestRandomConnectedPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := RandomConnected(40, 0.07, rng)
		k := 1 + rng.Intn(10)
		parts := RandomConnectedPartition(g, k, rng)
		if err := ValidatePartition(g, parts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, got := NormalizeParts(parts); got > k {
			t.Fatalf("trial %d: got %d parts, want <= %d", trial, got, k)
		}
	}
}

func TestPartitionHelpers(t *testing.T) {
	parts := []int{5, 5, 9, 9, 9}
	sizes := PartSizes(parts)
	if sizes[5] != 2 || sizes[9] != 3 {
		t.Fatalf("PartSizes = %v", sizes)
	}
	norm, k := NormalizeParts(parts)
	if k != 2 {
		t.Fatalf("NormalizeParts count = %d, want 2", k)
	}
	if norm[0] != 0 || norm[2] != 1 {
		t.Fatalf("NormalizeParts = %v", norm)
	}
	if got := SingletonPartition(3); got[0] == got[1] {
		t.Fatalf("SingletonPartition = %v", got)
	}
	if got := WholePartition(3); got[0] != got[2] {
		t.Fatalf("WholePartition = %v", got)
	}
	stripes := StripePartition(2, 3)
	if stripes[0] != stripes[2] || stripes[0] == stripes[3] {
		t.Fatalf("StripePartition = %v", stripes)
	}
	ipp := InterleavedPathParts(6, 3)
	if ipp[0] != ipp[1] || ipp[1] == ipp[2] {
		t.Fatalf("InterleavedPathParts = %v", ipp)
	}
}

func TestGridStarRowParts(t *testing.T) {
	g := GridStar(3, 4)
	parts := GridStarRowParts(3, 4)
	if err := ValidatePartition(g, parts); err != nil {
		t.Fatalf("row partition invalid: %v", err)
	}
	if parts[g.N()-1] == parts[0] {
		t.Fatal("apex shares a part with the grid")
	}
}

func TestReweightAndRandomizeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomizeWeights(Grid(3, 3), 100, rng)
	for i := 0; i < g.M(); i++ {
		w := g.Edge(i).W
		if w < 1 || w > 100 {
			t.Fatalf("edge %d weight %d out of range", i, w)
		}
	}
	doubled, err := g.Reweight(func(_ int, e Edge) Weight { return 2 * e.W })
	if err != nil {
		t.Fatal(err)
	}
	if doubled.TotalWeight() != 2*g.TotalWeight() {
		t.Fatal("Reweight did not double total weight")
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(7)
	if got := g.Eccentricity(0); got != 6 {
		t.Fatalf("Eccentricity(0) = %d, want 6", got)
	}
	if got := g.Eccentricity(3); got != 3 {
		t.Fatalf("Eccentricity(3) = %d, want 3", got)
	}
}

func TestDeepPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	graphs := []*Graph{
		Path(100), Grid(10, 10), Star(20), RandomConnected(80, 0.05, rng), Torus(8, 8),
	}
	for gi, g := range graphs {
		for _, segLen := range []int{1, 5, 12} {
			parts := DeepPartition(g, segLen)
			if err := ValidatePartition(g, parts); err != nil {
				t.Fatalf("graph %d segLen %d: %v", gi, segLen, err)
			}
			sizes := PartSizes(parts)
			small := 0
			for _, s := range sizes {
				if s < segLen {
					small++
				}
			}
			if small > 1 {
				t.Fatalf("graph %d segLen %d: %d parts below the size floor", gi, segLen, small)
			}
		}
	}
}

func TestDeepPartitionMakesDeepParts(t *testing.T) {
	// On a grid, D ~ 2*side but DeepPartition segments can be much deeper.
	g := Grid(12, 12)
	parts := DeepPartition(g, 48)
	sizes := PartSizes(parts)
	for p, s := range sizes {
		if s >= 48 {
			return // at least one genuinely deep part exists
		}
		_ = p
	}
	t.Fatal("no part reached the requested depth")
}
