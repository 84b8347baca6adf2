package graph

import "math/rand"

// Graph helpers only this package's tests use.

// ErdosRenyi returns G(n, p). The result may be disconnected; see
// RandomConnected for a connected variant. The edge count is random, so the
// builder is sized to its expectation.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n, int(p*float64(n)*float64(n-1)/2))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v, defaultWeight)
			}
		}
	}
	return b.MustFinish()
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() Weight {
	var s Weight
	for _, e := range g.edges {
		s += e.W
	}
	return s
}
