package graph

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
)

// family.go is the one table of generated graph families: every CLI, the
// multi-run job mode and the scale sweep build their named instances
// through Family. A builder rounds the requested node count to its family's
// natural shape (a torus needs a square side of at least 3) and clamps it
// to the smallest valid instance, so no size >= 1 reaches a generator's
// panic. Builders are pure in (n, seed): equal arguments give identical
// graphs, the property a cache of networks keyed by (family, n, seed)
// relies on.
var familyTable = map[string]func(n int, seed int64) *Graph{
	"cbt": func(n int, _ int64) *Graph {
		return CompleteBinaryTree(bits.Len(uint(n))) // the smallest with >= n nodes
	},
	"cycle": func(n int, _ int64) *Graph { return Cycle(max(n, 3)) },
	"grid": func(n int, _ int64) *Graph {
		side := squareSide(n)
		return Grid(side, side)
	},
	"gridstar": func(n int, _ int64) *Graph {
		rows := max(2, squareSide(n/6))
		return GridStar(rows, 6*rows)
	},
	"ktree": seeded(func(n int, rng *rand.Rand) *Graph { return KTree(max(n, 3), 2, rng) }),
	"ladder": func(n int, _ int64) *Graph {
		return Ladder(max(n/2, 2))
	},
	"lollipop": func(n int, _ int64) *Graph { return Lollipop(n, max(1, n/5)) },
	"path":     func(n int, _ int64) *Graph { return Path(n) },
	"random": seeded(func(n int, rng *rand.Rand) *Graph {
		n = max(n, 8)
		return RandomConnected(n, 3.0/float64(n), rng)
	}),
	"torus": func(n int, _ int64) *Graph {
		side := max(3, squareSide(n)) // a torus needs rows, cols >= 3
		return Torus(side, side)
	},
	// The skewed families: hub nodes carrying a constant fraction of all
	// edges, the regime the engine's edge-balanced shard boundaries exist for.
	"star": func(n int, _ int64) *Graph { return Star(max(n, 2)) },
	"powerlaw": seeded(func(n int, rng *rand.Rand) *Graph {
		return PowerLaw(max(n, 8), 4, 2.5, rng)
	}),
	"prefattach": seeded(func(n int, rng *rand.Rand) *Graph {
		return PrefAttach(max(n, 8), 3, rng)
	}),
}

// seeded wraps a random family: one rng seeded by seed draws the shape and
// then i.i.d. weights in [1, 100].
func seeded(build func(n int, rng *rand.Rand) *Graph) func(int, int64) *Graph {
	return func(n int, seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		return RandomizeWeights(build(n, rng), 100, rng)
	}
}

// squareSide rounds a target node count to the nearest square's side, >= 2.
func squareSide(n int) int {
	return max(2, int(math.Round(math.Sqrt(float64(max(n, 4))))))
}

// Family builds the named family's instance nearest n nodes; the graph's N
// reports the actual count. It fails only on an unknown name or n < 1.
func Family(name string, n int, seed int64) (*Graph, error) {
	build, ok := familyTable[name]
	if !ok {
		return nil, fmt.Errorf("unknown graph family %q (have: %s)", name, strings.Join(FamilyNames(), ", "))
	}
	if n < 1 {
		return nil, fmt.Errorf("graph family %q needs n >= 1, got %d", name, n)
	}
	return build(n, seed), nil
}

// FamilyNames returns the family names Family accepts, sorted.
func FamilyNames() []string { return slices.Sorted(maps.Keys(familyTable)) }
