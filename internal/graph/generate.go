package graph

import (
	"fmt"
	"math/rand"
)

// Defaults for generated edge weights. Generators produce unit weights;
// RandomizeWeights assigns weights uniform in [1, maxW].
const defaultWeight Weight = 1

// Every generator streams its edges straight into a Builder sized to the
// family's exact edge count (or, for the random families, its expectation),
// so construction is O(n + m) with one allocation per flat array and no
// intermediate edge slice for New to re-validate and copy.

// Path returns the path graph on n nodes: 0-1-2-...-(n-1). Pathwidth 1.
func Path(n int) *Graph {
	b := NewBuilder(n, n-1)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, defaultWeight)
	}
	return b.MustFinish()
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, defaultWeight)
	}
	return b.MustFinish()
}

// Star returns the star graph: node 0 is the hub, nodes 1..n-1 are leaves.
func Star(n int) *Graph {
	b := NewBuilder(n, n-1)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i, defaultWeight)
	}
	return b.MustFinish()
}

// Grid returns the rows x cols grid graph (planar, diameter rows+cols-2).
// Node (r,c) has index r*cols+c.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	b := NewBuilder(n, gridEdgeCount(rows, cols))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1, defaultWeight)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols, defaultWeight)
			}
		}
	}
	return b.MustFinish()
}

// gridEdgeCount is the exact edge count of the rows x cols grid.
func gridEdgeCount(rows, cols int) int {
	if rows < 1 || cols < 1 {
		return 0
	}
	return rows*(cols-1) + (rows-1)*cols
}

// Torus returns the rows x cols torus (grid with wraparound): genus 1.
// Requires rows, cols >= 3 so no duplicate edges arise.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: Torus needs rows,cols >= 3, got %dx%d", rows, cols))
	}
	n := rows * cols
	b := NewBuilder(n, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			right := r*cols + (c+1)%cols
			down := ((r+1)%rows)*cols + c
			b.AddEdge(v, right, defaultWeight)
			b.AddEdge(v, down, defaultWeight)
		}
	}
	return b.MustFinish()
}

// Ladder returns the 2 x n ladder graph (pathwidth 2).
func Ladder(n int) *Graph { return Grid(2, n) }

// CompleteBinaryTree returns a complete binary tree with the given number of
// levels (level 1 = a single root). Treewidth 1.
func CompleteBinaryTree(levels int) *Graph {
	if levels < 1 {
		panic("graph: CompleteBinaryTree needs levels >= 1")
	}
	n := (1 << levels) - 1
	b := NewBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge((v-1)/2, v, defaultWeight)
	}
	return b.MustFinish()
}

// RandomTree returns a uniformly random labeled tree on n nodes built from a
// random Prüfer-like attachment: node i attaches to a uniform node in [0, i).
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n, n-1)
	for i := 1; i < n; i++ {
		b.AddEdge(rng.Intn(i), i, defaultWeight)
	}
	return b.MustFinish()
}

// KTree returns a k-tree on n >= k+1 nodes (treewidth exactly k for n > k):
// start from a (k+1)-clique; each new node attaches to a random k-clique.
func KTree(n, k int, rng *rand.Rand) *Graph {
	if n < k+1 {
		panic(fmt.Sprintf("graph: KTree needs n >= k+1, got n=%d k=%d", n, k))
	}
	b := NewBuilder(n, k*(k+1)/2+(n-k-1)*k)
	// cliques holds k-subsets that new nodes may attach to.
	var cliques [][]int
	base := make([]int, k+1)
	for i := 0; i <= k; i++ {
		base[i] = i
		for j := 0; j < i; j++ {
			b.AddEdge(j, i, defaultWeight)
		}
	}
	// All k-subsets of the base clique.
	for drop := 0; drop <= k; drop++ {
		sub := make([]int, 0, k)
		for _, v := range base {
			if v != base[drop] {
				sub = append(sub, v)
			}
		}
		cliques = append(cliques, sub)
	}
	for v := k + 1; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		for _, u := range c {
			b.AddEdge(u, v, defaultWeight)
		}
		// New k-subsets: v plus each (k-1)-subset of c.
		for drop := 0; drop < k; drop++ {
			sub := make([]int, 0, k)
			sub = append(sub, v)
			for j, u := range c {
				if j != drop {
					sub = append(sub, u)
				}
			}
			cliques = append(cliques, sub)
		}
	}
	return b.MustFinish()
}

// RandomConnected returns a connected G(n, p)-like graph: a random spanning
// tree unioned with G(n, p) edges. Tree edges are pairwise distinct (each is
// keyed by its larger endpoint) and so are the G(n, p) pairs, so the only
// possible duplicates are G(n, p) edges that re-draw a tree edge — one flat
// parent array answers that, replacing the old map[[2]int]struct{} dedup.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n, n-1+int(p*float64(n)*float64(n-1)/2))
	treeParent := make([]int32, n)
	for i := range treeParent {
		treeParent[i] = -1
	}
	for i := 1; i < n; i++ {
		u := rng.Intn(i)
		treeParent[i] = int32(u)
		b.AddEdge(u, i, defaultWeight)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p && treeParent[v] != int32(u) {
				b.AddEdge(u, v, defaultWeight)
			}
		}
	}
	return b.MustFinish()
}

// Lollipop returns a clique on k nodes attached to a path of n-k nodes.
// A classic high-diameter, locally-dense stress test.
func Lollipop(n, k int) *Graph {
	if k < 1 || k > n {
		panic(fmt.Sprintf("graph: Lollipop needs 1 <= k <= n, got n=%d k=%d", n, k))
	}
	b := NewBuilder(n, k*(k-1)/2+(n-k))
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v, defaultWeight)
		}
	}
	for v := k; v < n; v++ {
		b.AddEdge(v-1, v, defaultWeight)
	}
	return b.MustFinish()
}

// GridStar is the paper's Figure 2 lower-bound instance: a rows x cols grid
// plus an apex node r adjacent to every node of the top row. The apex has
// index rows*cols. With rows = D/2 and cols = (n-1)/rows this realizes the
// D x (n-1)/D construction of Section 3.1.
func GridStar(rows, cols int) *Graph {
	n := rows * cols
	g := Grid(rows, cols)
	b := NewBuilder(n+1, g.M()+cols)
	g.ForEdges(func(_ int, e Edge) bool {
		b.AddEdge(e.U, e.V, e.W)
		return true
	})
	for c := 0; c < cols; c++ {
		b.AddEdge(n, c, defaultWeight)
	}
	return b.MustFinish()
}

// GridStarRowParts returns the Figure 2a partition of GridStar(rows, cols):
// each grid row is a part, and the apex is its own part. parts[v] gives the
// part index of node v.
func GridStarRowParts(rows, cols int) []int {
	parts := make([]int, rows*cols+1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			parts[r*cols+c] = r
		}
	}
	parts[rows*cols] = rows
	return parts
}

// RandomizeWeights returns a copy of g with i.i.d. uniform weights in
// [1, maxW].
func RandomizeWeights(g *Graph, maxW Weight, rng *rand.Rand) *Graph {
	out, err := g.Reweight(func(int, Edge) Weight {
		return 1 + Weight(rng.Int63n(int64(maxW)))
	})
	if err != nil {
		panic(err) // weights are positive by construction
	}
	return out
}
