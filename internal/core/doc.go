// Package core implements the paper's primary contribution: round- and
// message-optimal Part-Wise Aggregation (Theorem 1.2), together with the
// shortcut-construction subroutines it relies on — the randomized CoreFast
// construction (Algorithm 4, after [19]), the deterministic heavy-path
// construction (Algorithms 7 and 8), block-parameter verification
// (Algorithm 2), star-joining-based leaderless PA (Algorithm 9 /
// Appendix B), and the prior-work baselines of Section 3.1.
//
// Engine.Boruvka is the loop of star joinings (Definition 6.1) shared by
// Algorithm 9's coarsening and the Borůvka MST of internal/mst. Its first
// 2·log2(n)+9 phases join in the engine's mode; any phase past them uses
// Algorithm 5's deterministic joining, so a randomized run's unlucky coin
// flips cost extra phases rather than an error.
//
// The loop and the baselines reuse lower-layer steps rather than writing
// their own: Boruvka completes each joining with subpart.AdoptAcross
// (phase core/adopt), the block-push baseline aggregates covered parts
// with tree.ForestAgg (phase core/covered-agg), and engine setup learns
// n and D with tree.Global. LeastEdge is the one Borůvka MST pick that
// internal/mst and internal/mincut hand the loop.
package core
