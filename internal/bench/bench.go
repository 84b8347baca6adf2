package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// workers is the engine parallelism every experiment network uses
// (0 = sequential). Results are bit-identical at any setting (see
// internal/congest/README.md); it only changes wall-clock time.
var workers int

// SetWorkers configures the engine parallelism for all subsequently built
// experiment networks (cmd/pabench's -workers flag lands here).
func SetWorkers(k int) { workers = k }

// newNetwork builds an experiment network with the configured parallelism.
// The worker count is passed to construction itself, so NewNetwork's slot
// geometry fill shards across the pool at large n (not just the rounds).
func newNetwork(g *graph.Graph, seed int64) *congest.Network {
	return congest.NewNetworkWorkers(g, seed, workers)
}

// Table is one experiment's output: a title, column headers, and rows.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// family is one graph family of Table 1 / Table 2 with the paper's claimed
// shortcut parameters.
type family struct {
	name    string
	build   func(scale int, rng *rand.Rand) (*graph.Graph, string)
	paperB  string
	paperC  string
	paperRT string // Table 2 randomized round claim
}

func families() []family {
	return []family{
		{
			name: "general",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				n := 40 * s
				return graph.RandomConnected(n, 3.0/float64(n), rng), fmt.Sprintf("G(n=%d)", n)
			},
			paperB: "1", paperC: "sqrt(n)", paperRT: "~(D+sqrt n)",
		},
		{
			name: "planar",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				side := 6 * s
				return graph.Grid(side, side), fmt.Sprintf("grid %dx%d", side, side)
			},
			paperB: "log D", paperC: "~D", paperRT: "~D",
		},
		{
			name: "genus-1",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				side := 6 * s
				return graph.Torus(side, side), fmt.Sprintf("torus %dx%d", side, side)
			},
			paperB: "sqrt(g)", paperC: "~sqrt(g)D", paperRT: "~sqrt(g)D",
		},
		{
			name: "treewidth-2",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				n := 50 * s
				return graph.KTree(n, 2, rng), fmt.Sprintf("2-tree n=%d", n)
			},
			paperB: "t", paperC: "~t", paperRT: "~tD",
		},
		{
			name: "pathwidth-2",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				n := 60 * s
				return graph.Ladder(n), fmt.Sprintf("ladder n=%d", 2*n)
			},
			paperB: "p", paperC: "p", paperRT: "~pD",
		},
		{
			name: "bad-example",
			build: func(s int, rng *rand.Rand) (*graph.Graph, string) {
				rows, cols := 4*s, 24*s
				return graph.GridStar(rows, cols), fmt.Sprintf("gridstar %dx%d", rows, cols)
			},
			paperB: "1", paperC: "D", paperRT: "~D",
		},
	}
}

// hardPartition builds a PA instance that stresses shortcuts: connected
// parts several times deeper than the graph diameter (DeepPartition
// segments of ~6D nodes), the regime Theorem 1.2 is about.
func hardPartition(g *graph.Graph, rng *rand.Rand) []int {
	_ = rng
	return graph.DeepPartition(g, 6*g.Eccentricity(0))
}

// apexed adds a hub node adjacent to every stride-th node: diameter
// collapses to O(stride's reach) so DeepPartition parts become genuinely
// deeper than D — the same trick the paper's Figure 2 instance uses (an
// apex over the grid's top row). The apex gets its own part.
func apexed(g *graph.Graph, stride int) *graph.Graph {
	apex := g.N()
	b := graph.NewBuilder(apex+1, g.M()+(apex+stride-1)/stride)
	g.ForEdges(func(_ int, e graph.Edge) bool {
		b.AddEdge(e.U, e.V, e.W)
		return true
	})
	for v := 0; v < apex; v += stride {
		b.AddEdge(apex, v, 1)
	}
	return b.MustFinish()
}

// deepApexInstance: apex a family instance and stripe the base graph into
// parts far deeper than the collapsed diameter.
func deepApexInstance(g *graph.Graph, segLen int) (*graph.Graph, []int) {
	ag := apexed(g, 4)
	base := graph.DeepPartition(g, segLen)
	parts := make([]int, ag.N())
	copy(parts, base)
	apexPart := 0
	for _, p := range base {
		if p >= apexPart {
			apexPart = p + 1
		}
	}
	parts[ag.N()-1] = apexPart
	return ag, parts
}

// setupInstance wires a network + engine + partition with leaders.
func setupInstance(g *graph.Graph, parts []int, seed int64, mode core.Mode) (*core.Engine, *part.Info, error) {
	net := newNetwork(g, seed)
	e, err := core.NewEngine(net, mode)
	if err != nil {
		return nil, nil, err
	}
	in, err := part.FromDense(net, parts)
	if err != nil {
		return nil, nil, err
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		return nil, nil, err
	}
	return e, in, nil
}

func itoa(v int64) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string   { return fmt.Sprintf("%.2f", v) }
func itoaInt(v int) string    { return fmt.Sprintf("%d", v) }
func ratio(a, b int64) string { return fmt.Sprintf("%.2f", float64(a)/float64(b)) }
