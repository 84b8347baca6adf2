// Quickstart: solve one Part-Wise Aggregation instance (Definition 1.1).
//
// A 6x30 grid is partitioned into its six rows; every node holds a value;
// after Solve every node knows the sum of its row's values, computed in the
// CONGEST model with the paper's round- and message-optimal machinery.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

func main() {
	const rows, cols = 6, 30
	g := graph.Grid(rows, cols)
	net := congest.NewNetwork(g, 42)

	// Engine setup: leader election + BFS tree (shared by every PA call).
	engine, err := core.NewEngine(net, core.Randomized)
	if err != nil {
		log.Fatal(err)
	}

	// The PA instance: one part per grid row, leaders elected in-part.
	in, err := part.FromDense(net, graph.StripePartition(rows, cols))
	if err != nil {
		log.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, net.RoundCap()); err != nil {
		log.Fatal(err)
	}

	// Each node contributes its own index; f = component-wise sum.
	vals := make([]congest.Val, g.N())
	for v := range vals {
		vals[v] = congest.Val{A: int64(v), B: 1}
	}
	res, err := engine.Solve(in, vals, congest.SumPair)
	if err != nil {
		log.Fatal(err)
	}

	for r := 0; r < rows; r++ {
		v := r * cols // first node of the row
		fmt.Printf("row %d: sum=%d count=%d\n", r, res.Values[v].A, res.Values[v].B)
	}
	fmt.Printf("costs: %d rounds, %d messages (m=%d)\n",
		net.Total().Rounds, net.Total().Messages, g.M())
}
