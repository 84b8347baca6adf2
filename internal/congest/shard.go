package congest

import "sort"

// shard.go is the skew-aware shard boundary machinery. The parallel
// engine's waves split work by contiguous node ranges (parallel.go).
// Ranges of equal node *counts* balance uniform-degree families (tori,
// grids) but die on skewed ones: in a star, gridstar, or power-law graph
// one hub node carries a constant fraction of all incident edges, so the
// worker that owns it serializes nearly the whole wave while the rest idle.
//
// The fix is boundaries derived from the CSR row offsets: RowStart is the
// prefix-sum of node degrees, so a binary search over it splits the nodes
// into contiguous blocks of roughly equal incident-edge mass in
// O(workers * log n) — no per-node pass, no new arrays. Each wave weighs
// the work it actually does:
//
//   - the step wave steps the scheduled nodes of its shard, whose dominant
//     cost is sending over their ports: mass(v) = 1 + deg(v), the
//     sender-weighted boundary. Its interior boundaries are then rounded
//     down to multiples of 64 nodes, so each worker owns whole words of
//     the scheduling bitsets (parallel.go) — a shift of at most 63 nodes;
//   - the geometry-fill waves walk edge slots with only an O(1) loop shell
//     per node: mass(v) = deg(v), the receiver-slot-weighted boundary.
//     (In this engine's symmetric CSR a node's sender half-edges and
//     receiver slots occupy the same row [RowStart[v], RowStart[v+1]), so
//     the two weightings differ only in the per-node constant; the
//     per-wave choice is kept explicit so an asymmetric layout — e.g.
//     directed delivery — slots in without touching the waves.)
//
// Boundaries only change *which worker* executes a node, never the order-
// visible state: blocks stay contiguous, ascending, and disjoint, which is
// all the waves' disjoint-write and ascending-sender-rank arguments need
// (see parallel.go). The equivalence harness proves the executions stay
// bit-identical at every worker count.
//
// The third consumer of the pool, the RunPool job drain (internal/bench
// jobs), needs no boundary array at all: its work items are whole
// simulation runs of unknown cost, so it balances dynamically off an
// atomic queue cursor instead of a static split — same pool, different
// balancing regime.

// shardPlan caches one worker count's boundary arrays on the Network.
// Computed on first parallel wave for a count, reused by every later phase
// at that count, invalidated by SetWorkers and Reset. The topology (and so
// RowStart) is immutable for a network's lifetime, so a plan can only go
// stale by its worker count changing.
type shardPlan struct {
	workers int
	step    []int32 // step-wave boundaries: mass(v) = 1 + deg(v), interior ones 64-aligned
	slot    []int32 // fill-wave boundaries: mass(v) = deg(v)
}

// shardPlan returns the cached boundary arrays for k workers, computing
// them on a miss. Called only from the coordinator goroutine (phase start,
// construction), never from inside a wave.
func (n *Network) shardPlan(k int) *shardPlan {
	if p := n.plan; p != nil && p.workers == k {
		return p
	}
	p := &shardPlan{
		workers: k,
		step:    EdgeBalancedBounds(n.csr.RowStart, k, 1),
		slot:    EdgeBalancedBounds(n.csr.RowStart, k, 0),
	}
	for w := 1; w < k; w++ {
		p.step[w] &^= 63
	}
	n.plan = p
	return p
}

// EdgeBalancedBounds returns k+1 shard boundaries over the n nodes of a
// CSR row-offset array: shard w is the contiguous node block
// [bounds[w], bounds[w+1]), and the blocks carry roughly equal mass, where
// mass(v) = deg(v) + nodeCost. Boundaries are chosen greedily — each next
// boundary targets the remaining mass divided by the remaining shards — so
// a hub node heavier than a whole fair share consumes its own shard and
// the surplus is re-spread over the workers still to come, instead of
// leaving them the empty ranges a fixed-target split would.
//
// A shard never ends better than node granularity: a single node's mass is
// indivisible (a node is stepped by exactly one worker), so on a star the
// hub's shard still holds ~half the total mass. max(shard mass) <=
// max(ceil(total/k) + heaviest node, heaviest node) always holds; when no
// node exceeds a fair share the bound is within one node of perfect.
//
// bounds[0] = 0 and bounds[k] = n always; k < 1 is treated as 1. Empty
// shards (repeated boundaries) are legal and occur when k exceeds the
// mass available.
func EdgeBalancedBounds(rowStart []int32, k int, nodeCost int64) []int32 {
	n := len(rowStart) - 1
	if k < 1 {
		k = 1
	}
	mass := func(v int) int64 { return int64(rowStart[v]) + int64(v)*nodeCost }
	total := mass(n)
	bounds := make([]int32, k+1)
	bounds[k] = int32(n)
	prev := 0
	for w := 1; w < k; w++ {
		left := int64(k - w + 1)
		want := (total - mass(prev) + left - 1) / left // ceil(remaining / shards left)
		target := mass(prev) + want
		// Smallest cut in (prev, n] reaching the target mass; candidates
		// prev+1 .. n-1 via the search, n if none suffices.
		cur := prev + 1
		if cur < n {
			cur += sort.Search(n-cur, func(i int) bool { return mass(prev+1+i) >= target })
		}
		if cur > n {
			cur = n
		}
		bounds[w] = int32(cur)
		prev = cur
	}
	return bounds
}

// ShardMass is the balance report of one boundary array: how much
// incident-edge mass (half-edges, i.e. degree sum) each shard owns. This
// is the observability face of the sharding machinery — pabench -sweep
// prints it and BenchmarkEngine snapshots the ratio into BENCH_<pr>.json,
// so shard imbalance is a recorded number, not an anecdote.
type ShardMass struct {
	Bounds  []int32 // the measured boundaries, len shards+1
	Mass    []int64 // per-shard half-edge mass
	Max     int64   // heaviest shard
	MaxNode int64   // heaviest single node: the indivisible floor on Max
	Mean    float64 // total mass / shards
}

// MeasureShards computes the ShardMass of bounds over a CSR row-offset
// array.
func MeasureShards(rowStart []int32, bounds []int32) ShardMass {
	n := len(rowStart) - 1
	k := len(bounds) - 1
	s := ShardMass{Bounds: bounds, Mass: make([]int64, k)}
	for w := 0; w < k; w++ {
		m := int64(rowStart[bounds[w+1]] - rowStart[bounds[w]])
		s.Mass[w] = m
		if m > s.Max {
			s.Max = m
		}
	}
	for v := 0; v < n; v++ {
		if d := int64(rowStart[v+1] - rowStart[v]); d > s.MaxNode {
			s.MaxNode = d
		}
	}
	if k > 0 {
		s.Mean = float64(rowStart[n]) / float64(k)
	}
	return s
}

// Ratio is Max/Mean — 1.0 is perfect balance. A zero-mass (edgeless)
// instance reports 1.0: nothing to balance.
func (s ShardMass) Ratio() float64 {
	if s.Mean == 0 {
		return 1
	}
	return float64(s.Max) / s.Mean
}
