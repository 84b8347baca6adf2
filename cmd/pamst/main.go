package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mst"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pamst:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pamst", flag.ContinueOnError)
	var (
		family   = fs.String("family", "grid", "graph family: "+strings.Join(graph.FamilyNames(), "|"))
		n        = fs.Int("n", 100, "target node count; each family rounds it to its natural shape")
		seed     = fs.Int64("seed", 1, "seed")
		mode     = fs.String("mode", "rand", "rand|det")
		baseline = fs.Bool("baseline", false, "disable shortcuts (prior-work baseline)")
		workers  = fs.Int("workers", 1, "simulation engine workers (results are identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m core.Mode
	switch *mode {
	case "rand":
		m = core.Randomized
	case "det":
		m = core.Deterministic
	default:
		return fmt.Errorf("unknown mode %q (want rand or det)", *mode)
	}
	g, err := graph.Family(*family, *n, *seed)
	if err != nil {
		return err
	}
	g = graph.RandomizeWeights(g, 1000, rand.New(rand.NewSource(*seed)))

	net := congest.NewNetworkWorkers(g, *seed, *workers)
	e, err := core.NewEngine(net, m)
	if err != nil {
		return err
	}
	res, err := mst.Run(e, mst.Options{Baseline: *baseline})
	if err != nil {
		return err
	}
	total := net.Total()
	stepped, _ := net.ActivityStats()
	fmt.Fprintf(out, "graph: %s n=%d m=%d D=%d\n", *family, g.N(), g.M(), e.D)
	fmt.Fprintf(out, "mode: %s baseline=%v\n", m, *baseline)
	fmt.Fprintf(out, "phases: %d  weight: %d  (kruskal: %d, match: %v)\n",
		res.Phases, res.Weight, g.MSTWeight(), res.Weight == g.MSTWeight())
	fmt.Fprintf(out, "rounds: %d  messages: %d  (m=%d, msgs/m=%.1f)\n",
		total.Rounds, total.Messages, g.M(), float64(total.Messages)/float64(g.M()))
	// Node steps the engine ran; awake is their share of the n·rounds
	// steps a simulator stepping every node every round would run.
	fmt.Fprintf(out, "stepped: %d (awake %.2f%%)\n",
		stepped, 100*float64(stepped)/float64(max(int64(g.N())*total.Rounds, 1)))
	return nil
}
