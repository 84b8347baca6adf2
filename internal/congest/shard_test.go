package congest

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// checkBounds asserts the structural contract every boundary array shares:
// k+1 entries, bounds[0] = 0, bounds[k] = n, monotone non-decreasing — so
// the shards are contiguous, disjoint, and cover [0, n).
func checkBounds(t *testing.T, bounds []int32, k, n int) {
	t.Helper()
	if len(bounds) != k+1 {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), k+1)
	}
	if bounds[0] != 0 || bounds[k] != int32(n) {
		t.Fatalf("bounds endpoints %d..%d, want 0..%d", bounds[0], bounds[k], n)
	}
	for w := 0; w < k; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("bounds not monotone at %d: %v", w, bounds)
		}
	}
}

// TestEdgeBalancedBoundsStructure checks the structural contract across
// families, worker counts, and both wave weightings, including the
// degenerate shapes (empty graph, k > n, k < 1 clamped to 1).
func TestEdgeBalancedBoundsStructure(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(1),
		graph.Path(2),
		graph.Star(10),
		graph.Torus(8, 8),
		graph.PowerLaw(500, 4, 2.5, rand.New(rand.NewSource(9))),
	}
	for _, g := range graphs {
		rs := g.CSR().RowStart
		for _, k := range []int{-3, 0, 1, 2, 4, 8, g.N() + 5} {
			for _, nodeCost := range []int64{0, 1} {
				bounds := EdgeBalancedBounds(rs, k, nodeCost)
				wantK := k
				if wantK < 1 {
					wantK = 1
				}
				checkBounds(t, bounds, wantK, g.N())
			}
		}
	}
}

// TestEdgeBalancedBoundsBalance is the acceptance check for the tentpole:
// on n≈10^4 instances at 4 and 8 workers, the heaviest shard's edge mass
// stays within 1.25x the mean — or at the indivisible single-node floor
// when one hub alone outweighs a fair share (a star hub holds half of all
// mass; no node-granular split can beat that). The legacy node-count split
// must violate the same bound on the star, which is what gives the
// criterion teeth.
func TestEdgeBalancedBoundsBalance(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(10000)},
		{"gridstar", graph.GridStar(100, 100)},
		{"powerlaw", graph.PowerLaw(10000, 4, 2.5, rand.New(rand.NewSource(11)))},
		{"torus", graph.Torus(100, 100)},
	}
	for _, fam := range families {
		rs := fam.g.CSR().RowStart
		for _, k := range []int{4, 8} {
			s := MeasureShards(rs, EdgeBalancedBounds(rs, k, 0))
			limit := int64(math.Ceil(1.25 * s.Mean))
			if s.MaxNode > limit {
				limit = s.MaxNode
			}
			if s.Max > limit {
				t.Errorf("%s k=%d: max shard mass %d exceeds limit %d (mean %.0f, max node %d)",
					fam.name, k, s.Max, limit, s.Mean, s.MaxNode)
			}
			if fam.name == "torus" && float64(s.Max) > 1.25*s.Mean {
				// Uniform degree leaves no excuse for the floor.
				t.Errorf("torus k=%d: max shard mass %d > 1.25x mean %.0f", k, s.Max, s.Mean)
			}
		}
	}

	// Teeth: a uniform node-count split (boundary w at w*n/k) on the star
	// puts the hub AND a quarter of the leaves on worker 0, beating even the
	// indivisible floor.
	star := graph.Star(10000)
	rs := star.CSR().RowStart
	uniform := make([]int32, 5)
	for w := range uniform {
		uniform[w] = int32(w * star.N() / 4)
	}
	legacy := MeasureShards(rs, uniform)
	if limit := legacy.MaxNode; legacy.Max <= limit {
		t.Errorf("node-range sharding on star: max %d within floor %d — balance test has no teeth", legacy.Max, limit)
	}
	balanced := MeasureShards(rs, EdgeBalancedBounds(rs, 4, 0))
	if balanced.Max >= legacy.Max {
		t.Errorf("edge-balanced max %d not better than node-range max %d on star", balanced.Max, legacy.Max)
	}
}

// TestMeasureShardsRatio pins the metric on a hand-checkable instance: a
// path of 4 nodes has 3 edges = 6 half-edges, and the k=2 split at node 2
// puts exactly 3 half-edges (degrees 1+2) in each shard.
func TestMeasureShardsRatio(t *testing.T) {
	g := graph.Path(4)
	rs := g.CSR().RowStart
	s := MeasureShards(rs, []int32{0, 2, 4})
	if s.Mass[0] != 3 || s.Mass[1] != 3 {
		t.Fatalf("path masses %v, want [3 3]", s.Mass)
	}
	if s.Max != 3 || s.MaxNode != 2 || s.Mean != 3 {
		t.Fatalf("got Max=%d MaxNode=%d Mean=%.1f, want 3/2/3.0", s.Max, s.MaxNode, s.Mean)
	}
	if r := s.Ratio(); r != 1 {
		t.Fatalf("ratio %.3f, want 1", r)
	}
	// Edgeless graph: mean 0, ratio defined as 1.
	empty := MeasureShards([]int32{0, 0, 0}, []int32{0, 1, 2})
	if r := empty.Ratio(); r != 1 {
		t.Fatalf("edgeless ratio %.3f, want 1", r)
	}
}

// TestShardPlanMatchesWaves checks the step boundaries a real parallel
// phase runs its waves on: EdgeBalancedBounds with every interior boundary
// rounded down to a multiple of 64 (whole bitset words per worker).
func TestShardPlanMatchesWaves(t *testing.T) {
	g := graph.GridStar(20, 20)
	net := NewNetworkWorkers(g, 5, 4)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if ctx.Round() == 0 {
			ctx.Broadcast(Message{A: int64(v)})
			return true
		}
		return false
	})
	if _, err := net.RunNodes("shard-plan", proc, 8); err != nil {
		t.Fatal(err)
	}
	got := net.rs.stepBounds
	checkBounds(t, got, 4, g.N())
	want := EdgeBalancedBounds(g.CSR().RowStart, 4, 1)
	for i := 1; i < 4; i++ {
		want[i] &^= 63
	}
	if want[1] == want[3] {
		t.Fatalf("step bounds %v: want distinct aligned interior bounds", want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step bounds %v, want EdgeBalancedBounds 64-aligned %v", got, want)
	}
}
