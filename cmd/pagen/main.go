package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"shortcutpa/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pagen", flag.ContinueOnError)
	var (
		family = fs.String("family", "grid", "grid|gridstar|random|path|cycle|torus|ladder|ktree|cbt|lollipop|powerlaw|prefattach")
		scale  = fs.Int("scale", 2, "instance scale factor")
		seed   = fs.Int64("seed", 1, "seed")
		edges  = fs.Bool("edges", false, "print the edge list")
		load   = fs.String("load", "", "load a real edge list (SNAP or DIMACS format) instead of generating; -edges re-emits it normalized, with original node IDs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *load != "" {
		return runLoad(*load, *edges, stdout)
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}
	rng := rand.New(rand.NewSource(*seed))
	var g *graph.Graph
	switch *family {
	case "grid":
		g = graph.Grid(7**scale, 7**scale)
	case "gridstar":
		g = graph.GridStar(4**scale, 24**scale)
	case "random":
		n := 60 * *scale
		g = graph.RandomConnected(n, 3.0/float64(n), rng)
	case "path":
		g = graph.Path(60 * *scale)
	case "cycle":
		g = graph.Cycle(60 * *scale)
	case "torus":
		g = graph.Torus(6**scale, 6**scale)
	case "ladder":
		g = graph.Ladder(30 * *scale)
	case "ktree":
		g = graph.KTree(50**scale, 2, rng)
	case "cbt":
		g = graph.CompleteBinaryTree(3 + *scale)
	case "lollipop":
		g = graph.Lollipop(40**scale, 8**scale)
	case "powerlaw":
		g = graph.PowerLaw(60**scale, 4, 2.5, rng)
	case "prefattach":
		g = graph.PrefAttach(60**scale, 3, rng)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	fmt.Fprintf(stdout, "family=%s scale=%d n=%d m=%d diameter=%d\n", *family, *scale, g.N(), g.M(), g.Diameter())
	if *edges {
		g.ForEdges(func(_ int, e graph.Edge) bool {
			fmt.Fprintf(stdout, "%d %d %d\n", e.U, e.V, e.W)
			return true
		})
	}
	return nil
}

// runLoad is the -load path: parse a real SNAP/DIMACS export through
// graph.LoadEdgeList, report its shape, and optionally re-emit the
// normalized edge list (deduplicated, self-loop-free) under the file's
// original node IDs — so the output feeds straight back into -load or into
// fault experiments on real topologies. Real exports are often
// disconnected, where Diameter is undefined; it is reported as -1 then.
func runLoad(path string, edges bool, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, ids, err := graph.LoadEdgeList(f)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	diameter := -1
	if g.Connected() {
		diameter = g.Diameter()
	}
	fmt.Fprintf(stdout, "family=load n=%d m=%d diameter=%d\n", g.N(), g.M(), diameter)
	if edges {
		g.ForEdges(func(_ int, e graph.Edge) bool {
			fmt.Fprintf(stdout, "%d %d %d\n", ids[e.U], ids[e.V], e.W)
			return true
		})
	}
	return nil
}
