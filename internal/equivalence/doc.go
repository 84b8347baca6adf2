// Package equivalence holds the cross-engine test harness: every major
// protocol in the repository is executed under the sequential engine and
// under the parallel engine (several worker counts), across several master
// seeds, and the two executions must be bit-identical — same outputs, same
// total Metrics, same per-phase cost log. This is the proof obligation for
// the parallel engine's determinism guarantee (internal/congest/README.md);
// any divergence in scheduling, message ordering, or per-node PRNG streams
// shows up as a failure here.
//
// The same harness doubles as the migration safety net for protocol-layer
// refactors (the flat-scratch protocol sweep ran under it unchanged), and
// degenerate_test.go pins the topologies the flat engine layout must
// survive: n=0, n=1, n=2, disconnected graphs with isolated nodes, stars,
// and paths. golden_test.go freezes absolute Rounds/Messages costs per
// protocol so cost regressions cannot slip in silently.
package equivalence
