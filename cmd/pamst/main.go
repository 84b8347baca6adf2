package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mst"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pamst:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pamst", flag.ContinueOnError)
	var (
		family   = fs.String("family", "grid", "graph family: grid|gridstar|random|path|torus")
		scale    = fs.Int("scale", 2, "instance scale factor")
		seed     = fs.Int64("seed", 1, "seed")
		mode     = fs.String("mode", "rand", "rand|det")
		baseline = fs.Bool("baseline", false, "disable shortcuts (prior-work baseline)")
		workers  = fs.Int("workers", 1, "simulation engine workers (results are identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
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
	case "torus":
		g = graph.Torus(6**scale, 6**scale)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	g = graph.RandomizeWeights(g, 1000, rng)

	net := congest.NewNetwork(g, *seed)
	net.SetWorkers(*workers)
	e, err := core.NewEngine(net, m)
	if err != nil {
		return err
	}
	res, err := mst.Run(e, mst.Options{Baseline: *baseline})
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s scale=%d n=%d m=%d D=%d\n", *family, *scale, g.N(), g.M(), e.D)
	fmt.Printf("mode: %s baseline=%v\n", m, *baseline)
	fmt.Printf("phases: %d  weight: %d  (kruskal: %d, match: %v)\n",
		res.Phases, res.Weight, g.MSTWeight(), res.Weight == g.MSTWeight())
	fmt.Printf("rounds: %d  messages: %d  (m=%d, msgs/m=%.1f)\n",
		net.Total().Rounds, net.Total().Messages, g.M(),
		float64(net.Total().Messages)/float64(g.M()))
	return nil
}
