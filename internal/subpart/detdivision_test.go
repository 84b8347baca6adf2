package subpart

import (
	"fmt"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

// detSetup mirrors division_test's setup for the deterministic pipeline.
func detSetup(t *testing.T, g *graph.Graph, parts []int, seed, d int64) (*part.Info, *part.BFS, *Division) {
	t.Helper()
	net, in, pb := setup(t, g, parts, seed, d)
	div, err := DeterministicDivision(net, in, pb, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Validate(net, in, 0 /* depth checked separately */); err != nil {
		t.Fatal(err)
	}
	return in, pb, div
}

func TestDeterministicDivisionCoveredPartsStayWhole(t *testing.T) {
	g := graph.Grid(6, 6)
	parts := graph.StripePartition(6, 6)
	in, pb, div := detSetup(t, g, parts, 1, int64(g.N()))
	for v := 0; v < g.N(); v++ {
		if !pb.Covered[v] || div.RepID[v] != in.LeaderID[v] {
			t.Fatalf("node %d of covered part not in its leader's whole-part sub-part", v)
		}
	}
	for p, c := range div.CountSubParts(in) {
		if c != 1 {
			t.Fatalf("part %d has %d sub-parts", p, c)
		}
	}
}

func TestDeterministicDivisionDeepParts(t *testing.T) {
	// Grid-star rows deeper than D: Algorithm 6 must split them into
	// complete sub-parts of >= D nodes each (so at most |P|/D+1 of them).
	// 72,000 columns make n = 432,001, past n = 424,159, where node IDs
	// pass 2^50; that input takes ~12 s on 2 vCPUs, so -short skips it.
	const rows = 6
	for _, cols := range []int{60, 72000} {
		t.Run(fmt.Sprintf("cols=%d", cols), func(t *testing.T) {
			if cols > 60 && testing.Short() {
				t.Skip("n = 432,001: runs without -short")
			}
			g := graph.GridStar(rows, cols)
			parts := graph.GridStarRowParts(rows, cols)
			d := int64(rows + 2)
			in, _, div := detSetup(t, g, parts, 3, d)
			counts := div.CountSubParts(in)
			sizes := graph.PartSizes(in.Dense)
			for p, c := range counts {
				if sizes[p] <= int(d) {
					continue
				}
				if c > sizes[p]/int(d)+1 {
					t.Fatalf("part %d (size %d, D=%d) has %d sub-parts", p, sizes[p], d, c)
				}
				if c < 2 {
					t.Fatalf("deep part %d was not split", p)
				}
			}
			// Sub-part trees must not be deeper than the paper's 4D bound
			// allows (we allow a small slack over 4D for the attachment
			// chains).
			for v := 0; v < g.N(); v++ {
				if div.Depth[v] > 6*int(d) {
					t.Fatalf("node %d at sub-part depth %d > 6D", v, div.Depth[v])
				}
			}
		})
	}
}

func TestDeterministicDivisionIsReproducible(t *testing.T) {
	run := func() []int64 {
		const rows, cols = 5, 40
		g := graph.GridStar(rows, cols)
		parts := graph.GridStarRowParts(rows, cols)
		_, _, div := detSetup(t, g, parts, 7, int64(rows+2))
		return div.RepID
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("rep of node %d differs across runs", v)
		}
	}
}

func TestForestAggMatchesOfflinePerSubPart(t *testing.T) {
	const rows, cols = 5, 40
	g := graph.GridStar(rows, cols)
	parts := graph.GridStarRowParts(rows, cols)
	net, in, pb := setup(t, g, parts, 9, int64(rows+2))
	div, err := DeterministicDivision(net, in, pb, int64(rows+2))
	if err != nil {
		t.Fatal(err)
	}
	fa := &tree.ForestAgg{Net: net, Forest: &div.Forest, Phase: "subpart/forest-agg"}
	input := make([]congest.Val, g.N())
	for v := range input {
		input[v] = congest.Val{A: int64(v + 1)}
	}
	got, err := fa.Aggregate(input, congest.SumPair)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: sum per sub-part (keyed by RepID).
	want := make(map[int64]int64)
	for v := 0; v < g.N(); v++ {
		want[div.RepID[v]] += int64(v + 1)
	}
	for v := 0; v < g.N(); v++ {
		if got[v].A != want[div.RepID[v]] {
			t.Fatalf("node %d: forest agg %d, want %d", v, got[v].A, want[div.RepID[v]])
		}
	}
}

// TestBidOrdersByClassThenID: a sub-part's MinPair over Algorithm 6's bids
// is the (class, ID) minimum, and only its owner recognises it, for IDs at
// and past 2^50 too (simulator IDs reach 2^50 from n = 424,159 on).
func TestBidOrdersByClassThenID(t *testing.T) {
	const big = int64(1) << 50
	type b struct{ class, id int64 }
	for _, tc := range []struct {
		name string
		bids []b
		win  int
	}{
		{"class first", []b{{1, 5}, {0, 9}}, 1},
		{"ID within a class", []b{{0, 9}, {0, 5}}, 1},
		{"class 0 at a large ID beats class 1", []b{{1, 7}, {0, big + 3}}, 1},
		{"IDs across 2^50", []b{{0, big}, {0, big - 1}}, 1},
		{"IDs equal mod 2^50", []b{{0, big + 5}, {1, 5}, {0, 2*big + 5}}, 0},
		{"IDs past 2^51", []b{{1, 1 << 51}, {0, 1<<51 + 1}, {0, 1 << 51}}, 2},
	} {
		min := congest.Val{A: congest.PosInf}
		for _, x := range tc.bids {
			min = congest.MinPair(min, bid(x.class, x.id))
		}
		for i, x := range tc.bids {
			if won := min == bid(x.class, x.id); won != (i == tc.win) {
				t.Errorf("%s: bid %d %+v recognises itself = %v, want %v", tc.name, i, x, won, i == tc.win)
			}
		}
	}
}
