// Package mst implements Corollary 1.3: a round- and message-optimal
// distributed Minimum Spanning Tree via Borůvka's algorithm [34] over
// Part-Wise Aggregation. Each phase, every fragment finds its
// minimum-weight outgoing edge with one PA call (ties broken by a unique
// edge identifier, making the MST unique), a star joining merges a constant
// fraction of the fragments along their chosen edges, and joiners adopt
// their receiver's leader; O(log n) phases complete the tree. The phase
// loop is core.Engine.Boruvka: its first 2·log2(n)+9 phases join in the
// engine's mode, and any phase past them uses Algorithm 5's deterministic
// star joining, so a randomized run cannot fail on its coin flips.
//
// The package also provides the no-shortcut baseline (the same Borůvka
// skeleton with PA aggregating over fragment spanning trees only), whose
// round complexity degrades to Θ(max fragment diameter) per phase — the
// round-suboptimal prior-work extreme the paper improves on.
package mst
