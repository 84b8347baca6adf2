// The Figure 2 lower-bound demonstration (Section 3.1): on the grid-star
// instance, the prior-work block-push aggregation pays Θ(nD) messages per
// call while the sub-part algorithm pays Θ̃(n).
//
// Run: go run ./examples/badexample
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
	for _, rows := range []int{6, 12, 24} {
		cols := 8 * rows
		g := graph.GridStar(rows, cols)
		parts := graph.GridStarRowParts(rows, cols)
		var push, ours int64
		for _, blockPush := range []bool{true, false} {
			net := congest.NewNetwork(g, int64(100+rows))
			engine, err := core.NewEngineAt(net, core.Randomized, g.N()-1) // root at the apex, as in Fig. 2a
			if err != nil {
				log.Fatal(err)
			}
			in, err := part.FromDense(net, parts)
			if err != nil {
				log.Fatal(err)
			}
			if err := part.ElectLeaders(net, in, engine.MaxBudget()); err != nil {
				log.Fatal(err)
			}
			vals := make([]congest.Val, g.N())
			for v := range vals {
				vals[v] = congest.Val{A: int64(v)}
			}
			var inf *core.Infra
			if blockPush {
				inf, err = engine.BuildInfraOpts(in, core.InfraOptions{SingletonSubParts: true})
			} else {
				inf, err = engine.BuildInfra(in)
			}
			if err != nil {
				log.Fatal(err)
			}
			net.ResetMetrics()
			if blockPush {
				_, err = engine.BlockPushAggregate(inf, vals, congest.SumPair)
			} else {
				_, err = engine.SolveWithInfra(inf, vals, congest.SumPair)
			}
			if err != nil {
				log.Fatal(err)
			}
			if blockPush {
				push = net.Total().Messages
			} else {
				ours = net.Total().Messages
			}
		}
		n := g.N()
		fmt.Printf("rows=%2d n=%5d: block-push %7d msgs (%5.1f/node)  sub-parts %7d msgs (%5.1f/node)  gap %.2fx\n",
			rows, n, push, float64(push)/float64(n), ours, float64(ours)/float64(n),
			float64(push)/float64(ours))
	}
}
