// Package sssp implements Corollary 1.5: approximate single-source shortest
// paths with a round/message profile governed by Part-Wise Aggregation, plus
// the exact distributed Bellman-Ford baseline.
//
// The approximation follows the Haeupler-Li [18] recipe in simplified form
// (see ARCHITECTURE.md, "Substitutions"): edges lighter than a β-scaled threshold
// are contracted into clusters whose internal traversal is charged an upper
// bound ((size-1)·θ, available from one PA count); Bellman-Ford then runs
// over the contracted graph, with each meta-step using one PA-min to spread
// the best arrival through every cluster — exactly the paper's "traverse
// zero-weight components in a single round via PA" device. Estimates are
// always upper bounds on true distances; β trades approximation quality
// against meta-rounds (β -> 0 recovers exact Bellman-Ford).
package sssp
