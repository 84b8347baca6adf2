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

// Workers is the engine parallelism every subsequently built experiment
// network uses (0 = sequential; cmd/pabench's -workers flag lands here).
// Results are bit-identical at any setting (see internal/congest/README.md);
// it only changes wall-clock time.
var Workers int

// newNetwork builds an experiment network with the configured parallelism.
// The worker count is passed to construction itself, so NewNetwork's slot
// geometry fill shards across the pool at large n (not just the rounds).
func newNetwork(g *graph.Graph, seed int64) *congest.Network {
	return congest.NewNetworkWorkers(g, seed, Workers)
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
	desc    string // the instance
	build   func(rng *rand.Rand) *graph.Graph
	paperB  string
	paperC  string
	paperRT string // Table 2 randomized round claim
}

// families lists the Table 1 / Table 2 rows. The random rows draw from the
// experiment's shared rng; the fixed shapes build through graph.Family.
func families() []family {
	return []family{
		{
			name: "general", desc: "G(n=80)",
			build: func(rng *rand.Rand) *graph.Graph {
				n := 80
				return graph.RandomConnected(n, 3.0/float64(n), rng)
			},
			paperB: "1", paperC: "sqrt(n)", paperRT: "~(D+sqrt n)",
		},
		{
			name: "planar", desc: "grid 12x12", build: registered("grid", 144),
			paperB: "log D", paperC: "~D", paperRT: "~D",
		},
		{
			name: "genus-1", desc: "torus 12x12", build: registered("torus", 144),
			paperB: "sqrt(g)", paperC: "~sqrt(g)D", paperRT: "~sqrt(g)D",
		},
		{
			name: "treewidth-2", desc: "2-tree n=100",
			build:  func(rng *rand.Rand) *graph.Graph { return graph.KTree(100, 2, rng) },
			paperB: "t", paperC: "~t", paperRT: "~tD",
		},
		{
			name: "pathwidth-2", desc: "ladder n=240", build: registered("ladder", 240),
			paperB: "p", paperC: "p", paperRT: "~pD",
		},
		{
			name: "bad-example", desc: "gridstar 8x48", build: registered("gridstar", 384),
			paperB: "1", paperC: "D", paperRT: "~D",
		},
	}
}

// registered builds a fixed-shape family row through graph.Family. These
// shapes ignore the seed, and their names and sizes are valid constants.
func registered(name string, n int) func(*rand.Rand) *graph.Graph {
	return func(*rand.Rand) *graph.Graph {
		g, err := graph.Family(name, n, 0)
		if err != nil {
			panic(err)
		}
		return g
	}
}

// hardPartition builds a PA instance that stresses shortcuts: connected
// parts several times deeper than the graph diameter (DeepPartition
// segments of ~6D nodes), the regime Theorem 1.2 is about.
func hardPartition(g *graph.Graph) []int {
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
