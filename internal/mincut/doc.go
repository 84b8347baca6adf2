// Package mincut implements Corollary 1.4: approximate global minimum cut.
// Following the Ghaffari-Haeupler recipe [15] (Section 5.2 there), the
// algorithm computes O(log n)·poly(1/ε) MSTs under varying weights — here a
// Thorup-style greedy tree packing, where each round's MST minimizes
// accumulated edge load 1/w — such that some single tree edge's induced
// 2-component cut approximates the minimum cut. Every MST is computed by
// the distributed Borůvka-over-PA of Corollary 1.3.
//
// Candidate evaluation: the paper scores all n-1 single-tree-edge cuts with
// a PA-based sketching pass; this reproduction scores candidates engine-side
// and then *verifies the winning cut distributedly* — the two sides label
// themselves via PA (Algorithm 9 coarsening on the split tree) and the cut
// weight is a PA sum of crossing-edge weights. See ARCHITECTURE.md,
// "Substitutions".
package mincut
