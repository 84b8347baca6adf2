// Package congest implements the synchronous CONGEST/KT0 message-passing
// model of Peleg [36] that the paper works in (Section 2.1):
//
//   - the network is an undirected graph; communication proceeds in discrete
//     synchronous rounds;
//   - in each round every node may send one O(log n)-bit message along each
//     incident edge; messages sent in round r are delivered at round r+1;
//   - every node has an arbitrary unique O(log n)-bit ID, initially known
//     only to itself (KT0); a node addresses neighbors only by local port.
//
// The engine is deterministic: nodes draw randomness from per-node PRNGs
// seeded from a master seed, and nodes are stepped in index order (node
// state is strictly local, so order cannot affect outcomes). Because step
// order cannot affect outcomes, rounds may also be executed by a worker
// pool (SetWorkers): each worker steps a disjoint contiguous
// shard of nodes, and the edge-slot delivery buffers make the two engines
// write the exact same memory either way. Shard boundaries are skew-aware
// (shard.go): they follow the CSR row offsets so shards hold roughly equal
// incident-edge mass rather than equal node counts — on hub-heavy graphs
// (stars, power laws) equal counts would serialize one worker on the hub.
// Parallel runs are bit-identical to sequential runs — same results, same
// Rounds/Messages, same per-node PRNG streams. See README.md.
//
// Message delivery uses flat edge-slot buffers over the graph's CSR layout
// (README.md "Memory layout"): the model allows at most one message per
// incident edge per round, so delivery is two flipping arrays of 2m
// fixed-size slots — no per-round allocation, no inbox append, and no
// cross-engine merge pass, because each slot has exactly one writer. A
// slot holds only the bare 32-byte Message plus an int32 epoch-relative
// stamp (72 B resident per slot; Network.MemFootprint reports the live
// breakdown): the arrival port is static slot geometry, derived on read,
// and stamps rebase at the int32 boundary without protocols noticing
// (renormStamps). Protocols read deliveries two ways, neither of which
// copies into engine-owned storage: Ctx.ForRecv (in-place iteration over
// every delivery, in ascending sender order) and Ctx.RecvOn (O(1)
// port-indexed lookup).
//
// Round execution is activity-proportional (README.md "Sparse-activity
// round execution"): the engine schedules a round from frontier lists —
// nodes that stayed active plus nodes woken by a delivery, recorded at
// Send time — rather than scanning all n nodes and all 2m slots, so a
// round costs O(awake + delivered). Rounds whose activity overflows the
// frontier caps fall back to the dense full-range scan (a phase's first
// round always runs dense), and both paths step the same nodes in the
// same ascending order, so the mode decision is unobservable: outputs,
// costs, PRNG streams, and fault behaviour are bit-identical either way
// (the equivalence harness pins it). SetSparseRounds(false) forces the
// dense path for A/B measurement; ActivityStats exposes the stepped-node
// and sparse-round counters behind the bench sweep's awake% column.
//
// Phase execution is shared-proc (README.md "The shared-proc execution
// model"): the paper's protocols are uniform, so a phase is one NodeProc —
// a single state machine stepped with the node index — over flat per-node
// state arrays, run by Network.RunNodes, the engine's one phase entry
// point. Per-phase flat flag arrays recycle through the network's Scratch
// arena (scratch.go), so repeated phases allocate O(1).
//
// Construction (NewNetwork / NewNetworkWorkers) is O(n + m) and map-free:
// node IDs scatter into a sorted (id, node) index that NodeByID
// binary-searches, the slot-geometry fill is one ascending-sender pass
// (sharded across a worker pool when workers > 1, bit-identically), and
// the engine buffers are allocated but never initialized — the global
// round clock starts above zero, so zero-valued stamps already read as
// "never written" (see ARCHITECTURE.md "The construction pipeline").
//
// A constructed network is reusable across protocol runs: Network.Reset
// returns it to its as-constructed protocol-visible state (per-node PRNG
// streams restart from their seed origin, cost accounting clears, the
// monotone round clock keeps rolling) so a reused run is bit-identical to
// one on a freshly built network — the contract behind the multi-run
// serving mode (internal/bench jobs), enforced by the equivalence
// harness's reuse leg. RunPool exposes the engine's job-generic worker
// pool for callers draining their own work queues. See README.md "Network
// reuse: Reset and the serving contract".
//
// Networks optionally run under a fault scenario (scenario.go, README.md
// "Fault model: scenarios"): Network.SetScenario attaches scheduled node
// crashes and edge drops plus a seeded per-round random fault rate, parsed
// from a small spec grammar ("crash=17@100;drop=3-9@50;seed-faults=0.01").
// Semantics are fail-stop with boundary message loss — crashed nodes stop
// stepping, dead edges destroy in-flight deliveries and silently swallow
// later sends (still counted in Messages), and survivors observe faults
// only through silence and Ctx.PortDown. Faults are applied by the
// coordinator between rounds, so a faulty execution — including any
// protocol error it provokes — is bit-identical across both engines and
// across Reset reuse (Reset rewinds the scenario rather than detaching
// it); the scenario leg of the equivalence harness enforces this.
//
// Cost accounting follows the paper's measures: Rounds is the number of
// synchronous rounds executed until global quiescence (or the budget), and
// Messages counts every send. Quiescence — no node active and no message in
// flight — is detected by the engine; in the paper nodes instead run each
// phase for a precomputed worst-case budget, so engine detection only trims
// trailing idle rounds and never alters protocol behaviour.
package congest
