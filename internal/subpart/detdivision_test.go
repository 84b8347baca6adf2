package subpart

import (
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// detSetup mirrors division_test's setup for the deterministic pipeline.
func detSetup(t *testing.T, g *graph.Graph, parts []int, seed, d int64) (*part.Info, *Division) {
	t.Helper()
	net, in, pb := setup(t, g, parts, seed, d)
	div, err := DeterministicDivision(net, in, pb, d, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Validate(net, in, 0 /* depth checked separately */); err != nil {
		t.Fatal(err)
	}
	return in, div
}

func TestDeterministicDivisionCoveredPartsStayWhole(t *testing.T) {
	g := graph.Grid(6, 6)
	parts := graph.StripePartition(6, 6)
	in, div := detSetup(t, g, parts, 1, int64(g.N()))
	for v := 0; v < g.N(); v++ {
		if !div.WholePart[v] {
			t.Fatalf("node %d of covered part not whole-part", v)
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
	const rows, cols = 6, 60
	g := graph.GridStar(rows, cols)
	parts := graph.GridStarRowParts(rows, cols)
	d := int64(rows + 2)
	in, div := detSetup(t, g, parts, 3, d)
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
	// Sub-part trees must not be deeper than the paper's 4D bound allows
	// (we allow a small slack over 4D for the attachment chains).
	for v := 0; v < g.N(); v++ {
		if div.Depth[v] > 6*int(d) {
			t.Fatalf("node %d at sub-part depth %d > 6D", v, div.Depth[v])
		}
	}
}

func TestDeterministicDivisionIsReproducible(t *testing.T) {
	run := func() []int64 {
		const rows, cols = 5, 40
		g := graph.GridStar(rows, cols)
		parts := graph.GridStarRowParts(rows, cols)
		_, div := detSetup(t, g, parts, 7, int64(rows+2))
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
	div, err := DeterministicDivision(net, in, pb, int64(rows+2), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	fa := &ForestAgg{Net: net, ParentPort: div.ParentPort, ChildPorts: div.ChildPorts,
		Phase: "subpart/forest-agg", Budget: testBudget}
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
