// Package domset implements Corollary A.3: computing a k-dominating set —
// a node set S such that every node is within distance k of some member —
// of size Õ(n/k) in Õ(D+√n) rounds and Õ(m) messages.
//
// The paper obtains size O(n/k) by generalizing the deterministic sub-part
// division (Algorithm 6) with threshold k/6. This package provides both a
// deterministic merge-based construction on top of the same star-joining
// machinery and the randomized sampled construction (the Algorithm 3
// analogue: sample centers with probability ~ log n / k, claim balls of
// radius k); the sampled variant carries an extra log n factor in expected
// size, as Lemma 5.1's analysis does.
//
// ConnectedDominatingSet returns the internal nodes of the BFS tree — a
// valid connected dominating set computed in O(D) rounds. The paper's
// O(log n)-approximation of the *minimum-weight* CDS (Corollary A.2, via
// Ghaffari [14]) layers a fractional covering routine on top of the same
// labeling primitive and is not reproduced; see ARCHITECTURE.md,
// "Substitutions".
package domset
