package subpart

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// setup builds a network, partition info with elected leaders, and the
// radius-d intra-part BFS that RandomDivision consumes.
func setup(t *testing.T, g *graph.Graph, parts []int, seed, d int64) (*congest.Network, *part.Info, *part.BFS) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	in, err := part.FromDense(net, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		t.Fatal(err)
	}
	pb, err := part.RestrictedBFS(net, in, d)
	if err != nil {
		t.Fatal(err)
	}
	return net, in, pb
}

func TestRandomDivisionOnCoveredParts(t *testing.T) {
	// Small parts on a grid: every part is covered, so each is one sub-part
	// rooted at its leader.
	g := graph.Grid(6, 6)
	rng := rand.New(rand.NewSource(1))
	parts := graph.RandomConnectedPartition(g, 9, rng)
	d := int64(g.N()) // radius large enough to cover everything
	net, in, pb := setup(t, g, parts, 2, d)
	div, err := RandomDivision(net, in, pb, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Validate(net, in, int(d)); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !pb.Covered[v] {
			t.Fatalf("node %d's part not covered", v)
		}
		if div.RepID[v] != in.LeaderID[v] {
			t.Fatalf("node %d rep %d, want leader %d", v, div.RepID[v], in.LeaderID[v])
		}
	}
	for p, c := range div.CountSubParts(in) {
		if c != 1 {
			t.Fatalf("covered part %d has %d sub-parts, want 1", p, c)
		}
	}
}

func TestRandomDivisionOnLongPath(t *testing.T) {
	// One part spanning a long path, small radius: the sampling branch must
	// produce about |P|/D sub-parts of depth <= D.
	const n, d = 400, 20
	g := graph.Path(n)
	net, in, pb := setup(t, g, graph.WholePartition(n), 3, d)
	div, err := RandomDivision(net, in, pb, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Validate(net, in, d); err != nil {
		t.Fatal(err)
	}
	counts := div.CountSubParts(in)
	c := counts[in.Dense[0]]
	// Lemma 5.1: Õ(|P|/D) sub-parts. With prob 2 ln n / D the expectation is
	// 2 n ln n / D ≈ 240; allow generous slack but reject pathological
	// counts (singleton fallback storms or missing samples).
	if c < n/(2*d) {
		t.Fatalf("too few sub-parts: %d", c)
	}
	if c > n {
		t.Fatalf("too many sub-parts: %d", c)
	}
	// No node should be left at unreasonable depth.
	for v := 0; v < n; v++ {
		if div.Depth[v] > d {
			t.Fatalf("node %d at depth %d > D=%d", v, div.Depth[v], d)
		}
	}
}

func TestRandomDivisionMixedParts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(120, 0.03, rng)
		parts := graph.RandomConnectedPartition(g, 4, rng)
		d := int64(6)
		net, in, pb := setup(t, g, parts, int64(10+trial), d)
		div, err := RandomDivision(net, in, pb, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Validate reads part membership through SamePart alone, so it
		// also checks a partition that carries no Dense labels.
		noDense := *in
		noDense.Dense = nil
		for _, in := range []*part.Info{in, &noDense} {
			if err := div.Validate(net, in, int(d)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		// Every node has a representative.
		for v := 0; v < g.N(); v++ {
			if div.RepID[v] < 0 {
				t.Fatalf("trial %d: node %d has no rep", trial, v)
			}
		}
	}
}

func TestRandomDivisionGridStar(t *testing.T) {
	// The Figure 2 instance: rows are long parts, apex is a singleton part.
	const rows, cols = 8, 50
	g := graph.GridStar(rows, cols)
	parts := graph.GridStarRowParts(rows, cols)
	d := int64(rows) // D of this network is Θ(rows)
	net, in, pb := setup(t, g, parts, 5, d)
	div, err := RandomDivision(net, in, pb, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Validate(net, in, int(d)); err != nil {
		t.Fatal(err)
	}
	// The apex part is covered (singleton).
	apex := g.N() - 1
	if !pb.Covered[apex] || !div.IsRep[apex] {
		t.Fatal("apex should be a whole-part sub-part")
	}
	// Rows (50 nodes, radius 8): sampling branch; each row should have
	// several sub-parts but far fewer than its node count w.h.p.
	counts := div.CountSubParts(in)
	for p, c := range counts {
		if p == in.Dense[apex] {
			continue
		}
		if c < 2 || c > cols {
			t.Fatalf("row part %d has %d sub-parts", p, c)
		}
	}
}

func TestRandomDivisionIsReproducible(t *testing.T) {
	run := func() []int64 {
		g := graph.Path(100)
		net, in, pb := setup(t, g, graph.WholePartition(100), 9, 10)
		div, err := RandomDivision(net, in, pb, 10)
		if err != nil {
			t.Fatal(err)
		}
		return div.RepID
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d rep differs across identical runs", v)
		}
	}
}

// TestSingletonDivision: the Section 3.1 strawman keeps each covered part
// whole under its leader and makes every other node its own sub-part, with
// the SameSub flags a rep-ID exchange would have produced.
func TestSingletonDivision(t *testing.T) {
	const rows, cols = 6, 30
	g := graph.GridStar(rows, cols)
	d := int64(rows)
	net, in, pb := setup(t, g, graph.GridStarRowParts(rows, cols), 4, d)
	div := SingletonDivision(net, in, pb)
	if err := div.Validate(net, in, int(d)); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := net.ID(v)
		if pb.Covered[v] {
			want = in.LeaderID[v]
		}
		if div.RepID[v] != want {
			t.Fatalf("node %d (covered %v): rep %d, want %d", v, pb.Covered[v], div.RepID[v], want)
		}
	}
	if !pb.Covered[g.N()-1] || pb.Covered[0] {
		t.Fatal("want the apex part covered and the rows not")
	}
}
