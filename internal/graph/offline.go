package graph

import (
	"math"
	"sort"
)

// Offline (sequential) reference algorithms. These are used only as test
// oracles and for experiment reporting; the distributed algorithms under
// test never call them.

// BFSFrom returns the hop distances from src; unreachable nodes get -1.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for h := g.csr.RowStart[v]; h < g.csr.RowStart[v+1]; h++ {
			to := int(g.csr.PortTo[h])
			if dist[to] < 0 {
				dist[to] = dist[v] + 1
				queue = append(queue, to)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFSFrom(src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact hop diameter (max over all-pairs shortest hop
// counts). O(n·m); fine at simulator scales. Returns 0 for n <= 1.
// Panics if the graph is disconnected.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFSFrom(v) {
			if d < 0 {
				panic("graph: Diameter on disconnected graph")
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFSFrom(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// SubgraphComponents returns component labels of the subgraph of g induced
// by the edge subset keep (keep[i] == true retains edge i).
func (g *Graph) SubgraphComponents(keep []bool) ([]int, int) {
	dsu := NewDSU(g.n)
	for i, e := range g.edges {
		if keep[i] {
			dsu.Union(e.U, e.V)
		}
	}
	return dsu.Labels()
}

// IsBipartite reports whether g is bipartite, and if so returns a valid
// 2-coloring (side[v] in {0,1}).
func (g *Graph) IsBipartite() (side []int, ok bool) {
	side = make([]int, g.n)
	for i := range side {
		side[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if side[s] >= 0 {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for h := g.csr.RowStart[v]; h < g.csr.RowStart[v+1]; h++ {
				to := int(g.csr.PortTo[h])
				if side[to] < 0 {
					side[to] = 1 - side[v]
					queue = append(queue, to)
				} else if side[to] == side[v] {
					return nil, false
				}
			}
		}
	}
	return side, true
}

// DSU is a disjoint-set union (union-find) structure over 0..n-1.
type DSU struct {
	parent []int
	rank   []int
}

// NewDSU returns a DSU with n singleton sets.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), rank: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

// Find returns the representative of v's set, with path compression.
func (d *DSU) Find(v int) int {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]]
		v = d.parent[v]
	}
	return v
}

// Union merges the sets of a and b; reports whether they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// Labels returns dense labels in [0, #sets) per element and the set count.
func (d *DSU) Labels() ([]int, int) {
	labels := make([]int, len(d.parent))
	dense := make(map[int]int)
	for v := range d.parent {
		r := d.Find(v)
		id, ok := dense[r]
		if !ok {
			id = len(dense)
			dense[r] = id
		}
		labels[v] = id
	}
	return labels, len(dense)
}

// KruskalMST returns the edge indices of a minimum spanning forest. Ties are
// broken by edge index, matching the (weight, edge-id) lexicographic rule the
// distributed MST uses, so on connected graphs the result is the unique MST
// under that tie-break.
func (g *Graph) KruskalMST() []int {
	order := make([]int, len(g.edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.edges[order[a]], g.edges[order[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return order[a] < order[b]
	})
	dsu := NewDSU(g.n)
	var mst []int
	for _, i := range order {
		e := g.edges[i]
		if dsu.Union(e.U, e.V) {
			mst = append(mst, i)
		}
	}
	sort.Ints(mst)
	return mst
}

// MSTWeight returns the total weight of a minimum spanning forest.
func (g *Graph) MSTWeight() Weight {
	var total Weight
	for _, i := range g.KruskalMST() {
		total += g.edges[i].W
	}
	return total
}

// Dijkstra returns exact weighted shortest-path distances from src.
// Unreachable nodes get math.MaxInt64.
func (g *Graph) Dijkstra(src int) []int64 {
	const inf = math.MaxInt64
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		top := pq.pop()
		if top.d > dist[top.v] {
			continue
		}
		for h := g.csr.RowStart[top.v]; h < g.csr.RowStart[top.v+1]; h++ {
			to := int(g.csr.PortTo[h])
			nd := top.d + int64(g.edges[g.csr.PortEdge[h]].W)
			if nd < dist[to] {
				dist[to] = nd
				pq.push(distItem{v: to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d int64
}

// distHeap is a minimal binary min-heap on distance (no container/heap to
// keep the oracle self-contained and allocation-light).
type distHeap []distItem

func (h distHeap) Len() int { return len(h) }

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].d <= (*h)[i].d {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(*h) && (*h)[l].d < (*h)[s].d {
			s = l
		}
		if r < len(*h) && (*h)[r].d < (*h)[s].d {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// StoerWagnerMinCut returns the weight of a global minimum cut and one side
// of an optimal cut. Requires a connected graph with n >= 2.
func (g *Graph) StoerWagnerMinCut() (Weight, []int) {
	n := g.n
	if n < 2 {
		return 0, nil
	}
	// Dense weight matrix; simulator-scale graphs keep this cheap.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.edges {
		w[e.U][e.V] += int64(e.W)
		w[e.V][e.U] += int64(e.W)
	}
	// merged[i] lists original nodes contracted into super-node i.
	merged := make([][]int, n)
	for i := range merged {
		merged[i] = []int{i}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := int64(math.MaxInt64)
	var bestSide []int
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) order.
		inA := make(map[int]bool, len(active))
		weights := make(map[int]int64, len(active))
		order := make([]int, 0, len(active))
		for len(order) < len(active) {
			sel, selW := -1, int64(-1)
			for _, v := range active {
				if !inA[v] && weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		s := order[len(order)-2]
		cutOfPhase := int64(0)
		for _, v := range active {
			if v != t {
				cutOfPhase += w[t][v]
			}
		}
		if cutOfPhase < best {
			best = cutOfPhase
			bestSide = append([]int(nil), merged[t]...)
		}
		// Contract t into s.
		merged[s] = append(merged[s], merged[t]...)
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		next := active[:0]
		for _, v := range active {
			if v != t {
				next = append(next, v)
			}
		}
		active = next
	}
	sort.Ints(bestSide)
	return Weight(best), bestSide
}

// CutWeight returns the total weight of edges with exactly one endpoint in
// side (side[v] reports v's membership).
func (g *Graph) CutWeight(side []bool) Weight {
	var total Weight
	for _, e := range g.edges {
		if side[e.U] != side[e.V] {
			total += e.W
		}
	}
	return total
}
