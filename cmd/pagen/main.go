package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
		family = fs.String("family", "grid", strings.Join(graph.FamilyNames(), "|"))
		n      = fs.Int("n", 100, "target node count; each family rounds it to its natural shape")
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
	g, err := graph.Family(*family, *n, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "family=%s n=%d m=%d diameter=%d\n", *family, g.N(), g.M(), g.Diameter())
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
