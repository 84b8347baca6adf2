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
// pool (NewNetworkWorkers): each worker steps a disjoint contiguous
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
// slot holds only an int32 epoch-relative stamp and a 4-byte reference
// into the round's send log, where Send stores the 32-byte Message once
// (16 B resident per slot plus the logs, which hold one entry per message
// sent; Network.MemFootprint reports the live breakdown): the arrival port
// is static slot geometry, derived on read, and stamps rebase at the int32
// boundary without protocols noticing (renormStamps). A Broadcast is charged deg messages but stored once, in
// node-indexed buffers beside the slots (76 B per node), which receivers
// read through each slot's sender. Protocols read deliveries one way,
// Ctx.ForRecv: in-place iteration over every delivery, in ascending sender
// order, with no copy into engine-owned storage. As in KT0, a node learns only what arrives
// on its ports; the network offers no ID→node lookup to protocols.
//
// Round scheduling is one mechanism on both engines (README.md "Round
// execution: one bitset drain"): double-buffered bitsets of active and
// woken nodes, one bit per node, with one summary word per 64 words. A
// round drains the set bits word by word in ascending node order, so it
// steps exactly the nodes a dense scan would, in the same order, while
// reading only the words that hold an awake node; a phase's first round
// is the all-ones set. Send sets the receiver's woken bit (atomically on
// the parallel engine, whose shards own whole 64-node words). A node that
// waits on the clock rather than on a neighbour asks for a later round
// with Ctx.WakeAt and is not stepped before it (wake.go), so idle waits
// cost the engine nothing per node. ActivityStats exposes the stepped-node and sparse-round counters behind
// the bench sweep's awake% column.
//
// Phase execution is shared-proc (README.md "The shared-proc execution
// model"): the paper's protocols are uniform, so a phase is one NodeProc —
// a single state machine stepped with the node index — over flat per-node
// state arrays, run by Network.RunNodes, the engine's one phase entry
// point. A phase's per-node arrays belong to the protocol that runs it; the
// engine's own per-phase state is recycled, so a phase costs O(1) engine
// allocations.
//
// Construction (NewNetwork / NewNetworkWorkers) is O(n + m) and map-free:
// node IDs are one O(n) pass over a seeded permutation, the slot-geometry
// fill (destSlot and slotPort) is one ascending-sender pass
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
// Messages counts every send. Quiescence — no node active, no message in
// flight and no timed wake-up pending — is detected by the engine; in the paper nodes instead run each
// phase for a precomputed worst-case budget, so engine detection only trims
// trailing idle rounds and never alters protocol behaviour.
package congest
