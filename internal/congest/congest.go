package congest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"

	"shortcutpa/internal/graph"
)

// envWorkers reads the CONGEST_WORKERS environment override once: a CI/ops
// knob that makes every new network default to that engine parallelism
// (NewNetworkWorkers sets it per network). Results are bit-identical at
// any setting, so the knob only changes which engine executes; the
// race-short CI matrix uses it to drive the whole suite through the
// parallel engine's pool and its atomic wake bits.
var envWorkers = sync.OnceValue(func() int {
	k, err := strconv.Atoi(os.Getenv("CONGEST_WORKERS"))
	if err != nil || k < 0 {
		return 0
	}
	return k
})

// Message is one O(log n)-bit CONGEST message: a protocol-defined kind tag
// and up to three machine words of payload (a constant number of O(log n)-bit
// fields, as the model allows).
type Message struct {
	Kind    int32
	A, B, C int64
}

// Incoming is a message as seen by its receiver, tagged with the local port
// it arrived on.
type Incoming struct {
	Port int
	Msg  Message
}

// Metrics accumulates the two cost measures of the paper.
type Metrics struct {
	Rounds   int64
	Messages int64
}

// Add returns the component-wise sum of m and o.
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{Rounds: m.Rounds + o.Rounds, Messages: m.Messages + o.Messages}
}

// Phase records the cost of one named protocol phase.
type Phase struct {
	Name string
	Cost Metrics
}

// NodeProc is a phase's state machine, shared by every node: Step is
// invoked with the node index v once per round in which v is scheduled —
// round 0, any round with incoming messages, any round following a Step
// that returned true (active), and any round the node asked for with
// Ctx.WakeAt. Returning false parks the node until a message or one of its
// pending wake-ups wakes it. The paper's protocols are uniform, so
// per-node state lives in flat protocol-owned arrays indexed by v, not in
// the NodeProc value, and one phase costs O(1) allocations regardless of n.
//
// Concurrency contract (workers > 1): Step(ctx, v) may be invoked for
// different v concurrently from several goroutines. State indexed by v (or
// by v's CSR port offsets) is safe; writes to state shared across nodes are
// not (in practice there are none — protocol state is per-node).
type NodeProc interface {
	Step(ctx *Ctx, v int) (active bool)
}

// NodeProcFunc adapts a function to the NodeProc interface.
type NodeProcFunc func(ctx *Ctx, v int) bool

// Step implements NodeProc.
func (f NodeProcFunc) Step(ctx *Ctx, v int) bool { return f(ctx, v) }

// Network binds a graph to the simulator: node IDs, per-node PRNGs, and
// accumulated cost accounting across protocol phases. The flat delivery
// buffers are allocated once per network and reused by every phase.
type Network struct {
	g            *graph.Graph
	csr          graph.CSR
	destSlot     []int32 // per sender half-edge: the rank-indexed receiver slot it delivers into
	slotPort     []int32 // per slot: the receiver-side arrival port — slots store no ports, readers derive them here
	seed         int64
	ids          []int64
	rngs         []*rand.Rand
	total        Metrics
	phases       []Phase
	workers      int
	running      bool        // a phase is executing; guards Reset, SetScenario and nested RunNodes
	stepped      int64       // Step invocations across all rounds since construction/ResetMetrics (awake%: stepped / (n * Rounds))
	sparseRounds int64       // rounds past a phase's first that stepped at most sparseRoundCap nodes
	clock        int64       // global round counter across phases; stamps never repeat
	epoch        int64       // stamp epoch base: the int32 buffer stamps encode clock-epoch (see renormStamps)
	fault        *faultState // the attached fault scenario, compiled (scenario.go); nil = fault-free
	buf          *engineBuffers
	rs           *runState // recycled per-phase state: one allocation for the network's lifetime, rewritten by every RunNodes
}

// NewNetwork wraps g for simulation. The seed determines node IDs and all
// node randomness, making every execution reproducible. Construction is
// O(n + m) with no hash maps; the network's default worker count
// (CONGEST_WORKERS) also shards the slot-geometry fill — see
// NewNetworkWorkers for an explicit setting.
func NewNetwork(g *graph.Graph, seed int64) *Network {
	return NewNetworkWorkers(g, seed, envWorkers())
}

// NewNetworkWorkers is NewNetwork with an explicit engine parallelism,
// fixed for the network's lifetime: it applies both to construction (the
// O(m) slot-geometry fill shards across a worker pool when workers > 1) and
// to every phase, where workers <= 1 (negative counts included) selects the
// sequential engine and workers > 1 shards each round across that many
// goroutines. The choice affects wall-clock time only: the built network,
// results, metrics and per-node PRNG streams are bit-identical at any
// setting.
func NewNetworkWorkers(g *graph.Graph, seed int64, workers int) *Network {
	n := g.N()
	net := &Network{
		g:       g,
		csr:     g.CSR(),
		seed:    seed,
		ids:     make([]int64, n),
		rngs:    make([]*rand.Rand, n),
		workers: workers,
	}
	// Arbitrary unique IDs: an injective affine map of a seeded permutation,
	// so IDs are unique, O(log n)-bit scale, and in random order (the KT0
	// "arbitrary ID" assumption; see ARCHITECTURE.md, "Substitutions", on
	// leader-election messages).
	// Per-node PRNGs are created lazily (see rng): most protocols never
	// draw randomness at most nodes, so the network holds one nil pointer
	// per node until the first Ctx.Rand.
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for v := 0; v < n; v++ {
		net.ids[v] = int64(perm[v])*2654435761 + 12345
	}
	// The global round clock starts at clockBase, not 0, so the engine
	// buffers' zero values can serve as their "never written" sentinels:
	// every occupancy test compares a stamp against round or round-1, both
	// >= 1 from the first round on, so an untouched (all-zero) slot or wake
	// stamp can never read as occupied and the buffers need no
	// initialization pass at all — at n = 10^6 that pass was the single
	// largest setup cost (hundreds of MB of first-touch writes).
	net.clock = clockBase
	net.fillGeometry()
	return net
}

// clockBase is the first global round number. Must be >= 2: stamps compare
// against round and round-1, and both must stay above the zero value that
// freshly allocated (never-written) buffer entries carry.
const clockBase = 2

// fillGeometry builds the edge-slot geometry. Delivery slots are
// rank-indexed: slot RowStart[v]+k holds the message from v's k-th neighbor
// in ascending node order, so a linear scan of a node's slot range IS the
// sequential engine's sender-index delivery order — no reordering at read
// time.
//
// The fill is one O(m) pass: iterating senders u in ascending order and
// bumping each receiver's fill counter assigns every half-edge its
// receiver-side rank slot. destSlot gives each sender half-edge that slot
// directly — Send is one table lookup, and slots are disjoint across all
// (sender, port) pairs by construction. slotPort[s] is the receiver-side
// arrival port of slot s. Slots themselves store only a stamp and a
// send-log reference (no per-round port copy); ForRecv derives each
// delivery's port from this static table instead.
//
// With workers > 1 the fill shards across a temporary worker pool (see
// fillGeometryParallel); the sequential pass below is the reference the
// parallel one must match slot for slot.
func (n *Network) fillGeometry() {
	nodes := n.N()
	rs := n.csr.RowStart
	n.destSlot = make([]int32, len(n.csr.PortTo))
	n.slotPort = make([]int32, len(n.csr.PortTo))
	if n.workers > 1 && nodes >= minParallelFillNodes {
		// The fill's transient counters are O(workers * n), and shards
		// beyond the CPU count add only that scratch (the result is
		// bit-identical at any count), so clamp to real parallelism — with
		// a floor of 8 so the sharded path stays exercisable on small
		// hosts and in tests regardless of the machine.
		n.fillGeometryParallel(min(n.workers, nodes, max(runtime.GOMAXPROCS(0), 8)))
		return
	}
	fill := make([]int32, nodes)
	for u := 0; u < nodes; u++ {
		for h := rs[u]; h < rs[u+1]; h++ {
			v := n.csr.PortTo[h]
			slot := rs[v] + fill[v]
			n.destSlot[h] = slot
			n.slotPort[slot] = n.csr.PortRev[h]
			fill[v]++
		}
	}
}

// Graph returns the underlying graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// N returns the number of nodes.
func (n *Network) N() int { return n.g.N() }

// ID returns node v's unique O(log n)-bit identifier.
func (n *Network) ID(v int) int64 { return n.ids[v] }

// Seed returns the master seed.
func (n *Network) Seed() int64 { return n.seed }

// rng returns node v's private PRNG, creating it on first use. The stream
// depends only on (seed, v), so lazy creation is invisible to protocols and
// identical across engines. Under workers > 1 each node is stepped by
// exactly one goroutine, so the slot write is single-writer. The source is
// a nodeSource (noderand.go): rand.NewSource's exact stream for ~72 bytes
// and no seeding pass, with a real math/rand source built only for a node
// that draws more than 273 times.
func (n *Network) rng(v int) *rand.Rand {
	if r := n.rngs[v]; r != nil {
		return r
	}
	r := rand.New(newNodeSource(n.seed ^ (int64(v+1) * 0x9E3779B9)))
	n.rngs[v] = r
	return r
}

// ActivityStats reports the execution-activity counters accumulated since
// construction or the last ResetMetrics: how many node Steps ran in total
// (the mean awake fraction is stepped / (n * Total().Rounds)) and how many
// rounds were sparse: not a phase's first round, and stepping at most
// min(n, n/8+16) nodes. Purely observational — the counters never
// influence execution, and the engine has one round mode whatever they say.
func (n *Network) ActivityStats() (stepped, sparseRounds int64) {
	return n.stepped, n.sparseRounds
}

// Total returns the cost accumulated over all phases run so far.
func (n *Network) Total() Metrics { return n.total }

// Phases returns the per-phase cost log.
func (n *Network) Phases() []Phase {
	out := make([]Phase, len(n.phases))
	copy(out, n.phases)
	return out
}

// ResetMetrics clears accumulated metrics (e.g. to exclude setup phases from
// an experiment's accounting). The per-phase history is cleared, then
// truncated: clear drops every per-run phase-name string (a bare truncation
// would keep them reachable across thousands of served runs), while keeping
// the backing array lets the next phase's record append without allocating —
// the array's footprint stays bounded by the longest single run's phase
// count, entries zeroed.
func (n *Network) ResetMetrics() {
	n.total = Metrics{}
	n.stepped = 0
	n.sparseRounds = 0
	clear(n.phases)
	n.phases = n.phases[:0]
}

// Reset returns a constructed network to its as-new protocol-visible state,
// so the next protocol run on it is bit-identical — same outputs, same
// Rounds/Messages, same PRNG streams — to a run on a freshly built
// NewNetwork(g, seed). This is the reuse contract behind multi-run serving
// (internal/bench job runner): topology, IDs, slot geometry, and the
// ~O(n+2m) engine buffers are all seed- or graph-determined and stay as
// built, so Reset is O(n) and never reallocates.
//
// What Reset actually does:
//
//   - drops every per-node PRNG, so each stream restarts from its (seed, v)
//     origin on next use. Without this a reused network draws from
//     mid-stream state and randomized protocols silently diverge from the
//     fresh-network execution;
//   - clears the cost accounting (ResetMetrics): totals and the per-phase
//     history, which would otherwise grow without bound across served runs;
//   - rewinds the attached fault scenario (if any) to scenario round 0:
//     every node revives, every edge heals, the scheduled-event cursor and
//     the fault PRNG return to their origins, so a served run replays the
//     identical fault sequence. The scenario stays attached — detaching is
//     SetScenario(nil)'s job, not Reset's. With a scenario attached the
//     rewind makes Reset O(n + 2m) (the death flags are cleared in place);
//     fault-free networks keep the O(n) bound below;
//   - leaves the global round clock alone. The clock only ever rolls
//     forward, which is precisely what makes the delivery buffers reusable
//     without clearing: stale slot stamps are strictly older than any
//     round the next phase can test for. Protocols never see the absolute
//     clock (Ctx.Round is phase-relative), so a fresh network and a reset
//     one are indistinguishable from inside a Step.
//
// The scheduling bitsets and the timed wake-ups need no attention either:
// every phase start zeroes the bitsets, empties the wake-up heap and arms
// the all-nodes first round, so bits or wake-ups an aborted phase
// (BudgetExceededError, a protocol panic) left behind never reach the next
// phase, reset or not.
//
// Reset must not be called while a phase is running (it panics), and it
// keeps the worker count the network was built with: engine parallelism is
// the caller's serving-side knob, not protocol-visible state.
func (n *Network) Reset() {
	if n.running {
		panic("congest: Reset called while a phase is running")
	}
	for v := range n.rngs {
		n.rngs[v] = nil
	}
	if n.fault != nil {
		n.fault.rewind()
	}
	n.ResetMetrics()
}

// BudgetExceededError reports that a protocol did not quiesce within its
// round budget.
type BudgetExceededError struct {
	Phase  string
	Budget int64
}

// Error implements the error interface.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("congest: phase %q exceeded round budget %d", e.Phase, e.Budget)
}

// RoundCap is the network's livelock guard, 16n+4096 rounds: the cap every
// protocol building block passes to RunNodes. Pure intra-part spreading
// covers any connected part within O(n) rounds, so a phase that reaches the
// cap is stuck: a bug, or a fault that silenced a node its neighbours wait
// on.
func (n *Network) RoundCap() int64 { return int64(16*n.N() + 4096) }

// RunNodes executes one protocol phase: p.Step(ctx, v) is invoked for every
// scheduled node v. The phase ends at global quiescence (no active node, no
// message in flight) or fails with BudgetExceededError after maxRounds:
// RoundCap, or a caller's own bound (core's router and heavy-path schedule
// derive theirs from the doubling budget R). The
// phase cost is recorded under name and added to the network totals. The
// engine that runs it — sequential or a worker pool — is the worker count
// the network was built with; the two are bit-identical.
func (n *Network) RunNodes(name string, p NodeProc, maxRounds int64) (Metrics, error) {
	if p == nil && n.N() > 0 {
		return Metrics{}, fmt.Errorf("congest: phase %q has a nil NodeProc for %d nodes", name, n.N())
	}
	if n.running {
		return Metrics{}, fmt.Errorf("congest: phase %q started while another phase is running on this network", name)
	}
	n.running = true
	defer func() { n.running = false }()
	st := newRunState(n, p)
	defer st.close()
	// The recycled runState outlives the phase: drop the proc, so the
	// network never keeps a finished phase's protocol state reachable.
	defer func() { st.proc = nil }()
	// Advance the network clock past every stamp this phase can have
	// written, even on a budget failure or a protocol panic: the next
	// phase's rounds must not alias slots stamped by an aborted one.
	defer func() { n.clock = st.round + 2 }()
	var cost Metrics
	for !st.quiescent() {
		if cost.Rounds >= maxRounds {
			n.record(name, cost)
			return cost, &BudgetExceededError{Phase: name, Budget: maxRounds}
		}
		cost.Messages += st.step()
		cost.Rounds++
	}
	n.record(name, cost)
	return cost, nil
}

func (n *Network) record(name string, cost Metrics) {
	n.total = n.total.Add(cost)
	n.phases = append(n.phases, Phase{Name: name, Cost: cost})
}

// engineBuffers is the network-lifetime flat storage of the engine: the
// flipping 2m-slot delivery buffers, the per-shard send logs and the
// per-node scheduling bitsets, laid out structure-of-arrays. Allocated once
// (first phase) and reused by every subsequent phase — the global round
// clock guarantees stale stamps can never match, so phases need no
// clearing. Construction is allocation only, no initialization pass: the
// clock starts at clockBase, so the zero value every fresh array carries
// already means "never written" to each occupancy test. At n = 10^6 the old
// init loops (static Port prefill + stamp sentinels) were hundreds of MB of
// first-touch writes — the dominant setup cost; now a page is faulted in by
// the first round that actually uses it. See README.md "Memory layout".
//
// The slot arrays cost 16 B per slot resident (2 x 4 B stamp + 2 x 4 B log
// reference); the message itself lives in the round's send log, which
// holds one 32 B entry per unicast message sent, so its capacity follows
// the busiest round, not 2m. The arrival port is not stored per slot per
// round — it is a static property of the slot geometry (Network.slotPort),
// derived by the read paths that report it. The broadcast buffers cost 76
// B per node (2 x 32 B Message + 3 x 4 B stamp). The scheduling state is
// four bitsets of ceil(n/64) words plus two summaries of 1/64 that size:
// about half a byte per node. The pending timed wake-ups (wake.go) take 16
// B per entry, and only while a protocol asks for them.
type engineBuffers struct {
	// Rank-indexed delivery slots (see NewNetwork): slot s in node v's CSR
	// range holds the message from v's (s-RowStart[v])-th smallest-index
	// neighbor. cur* is what receives read this round; next* is what Send
	// writes. A slot is occupied iff its stamp equals the epoch-relative
	// round it was sent in: curStamp[s] == snow-1 (sent last round),
	// nextStamp[s] == snow, where snow = round - epoch fits int32 by the
	// renormStamps pass (see runState.renormStamps). An occupied slot's ref
	// names its message in the round's send log: index<<shardBits | shard.
	// A ref is only read behind a matching stamp, so it carries no round
	// and needs no renormalization.
	curRef    []uint32
	nextRef   []uint32
	curStamp  []int32
	nextStamp []int32
	// Send logs, one per step shard (one on the sequential engine): logs[i]
	// is what shard i's Sends append to this round, curLog[i] is its log of
	// last round, which ForRecv reads. They flip with the slots and keep
	// their capacity for the network's lifetime. shardBits is the width of
	// the shard field in a ref: 0 on the sequential engine.
	logs      []sendLog
	curLog    [][]Message
	shardBits uint32
	// Node-indexed broadcast entries: Broadcast writes node v's message
	// once, into entry v, instead of into each receiver's slot, and ForRecv
	// reads it through the slot's sender. They flip and are stamped like
	// the slots. sendStamp[v] == snow iff v made a live Send this round:
	// with nextBStamp it lets Send and Broadcast detect each other's
	// double send without scanning the row. The n-entry message arrays
	// stay cache-resident where the 2m-slot ones do not, which is what a
	// broadcast saves over deg scattered slot writes.
	curBMsg, nextBMsg     []Message
	curBStamp, nextBStamp []int32
	sendStamp             []int32
	// Scheduling bitsets, bit v of word v/64: act holds the nodes whose
	// last Step returned active, woke the nodes some sender targeted last
	// round; this round's drain steps act|woke and zeroes each word behind
	// it. actNext and wokeNext collect the next round's sets and swap in at
	// the flip, so the drained (now zero) pair becomes the next collectors.
	// sum is a summary with bit i set iff word i of act|woke may be
	// nonzero, so the drain visits only those words: a round with a few
	// awake nodes costs O(n/4096) word reads, not O(n/64).
	act, actNext   []uint64
	woke, wokeNext []uint64
	sum, sumNext   []uint64
	// wakes is the min-heap of pending Ctx.WakeAt requests (wake.go);
	// shardWakes[i] is parallel worker i's buffer of requests made during
	// the current wave, moved into the heap after its barrier.
	wakes      wakeHeap
	shardWakes [][]wakeup
}

// sendLog is one shard's log of the unicast messages sent this round: Send
// stores the message at entry n, bumps n and writes the entry's ref into
// the slot. Two rules keep it cheap, each measured on a prototype:
//
//   - no pointer store per Send. The fill count is a plain int32 and the
//     slice header is rewritten only when the log grows; an append per
//     Send runs a GC write barrier per message (mst-torus +7.4% run time);
//   - bounded, exact growth: min(max(2·len, 64), bound) entries, by make
//     and copy. bound is the half-edge count of the shard's senders, the
//     most messages the shard can send in a round, so a log never holds
//     more than one entry per slot it can write. append's and slices.Grow's
//     size classes overshoot that (1,024 entries on a 576-slot torus,
//     mst-torus heap +11.6%).
//
// Each log fills its own cache lines: parallel workers write n on every
// Send.
type sendLog struct {
	msgs  []Message // len == cap; entries [0, n) hold this round's messages
	n     int32
	shard uint32 // the low shardBits of every ref into this log
	bound int32
	_     [92]byte
}

// grow enlarges the log by the rule on sendLog, keeping its n entries.
func (lg *sendLog) grow() {
	msgs := make([]Message, min(max(2*len(lg.msgs), 64), int(lg.bound)))
	copy(msgs, lg.msgs[:lg.n])
	lg.msgs = msgs
}

func newEngineBuffers(n *Network) *engineBuffers {
	nodes, slots := n.N(), len(n.csr.PortTo)
	words := (nodes + 63) / 64
	sums := (words + 63) / 64
	shards := n.engineWorkers()
	// No initialization: zero stamps can never equal a real round (the
	// clock starts at clockBase >= 2), and slot, log and broadcast contents
	// are only read behind a matching stamp. Every phase start rewrites the
	// bitsets. The logs start empty and grow to the busiest round's sends;
	// a parallel shard's bound is set with its step boundaries
	// (ensurePool).
	b := &engineBuffers{
		curRef:     make([]uint32, slots),
		nextRef:    make([]uint32, slots),
		curStamp:   make([]int32, slots),
		nextStamp:  make([]int32, slots),
		logs:       make([]sendLog, shards),
		curLog:     make([][]Message, shards),
		shardBits:  uint32(bits.Len(uint(shards - 1))),
		curBMsg:    make([]Message, nodes),
		nextBMsg:   make([]Message, nodes),
		curBStamp:  make([]int32, nodes),
		nextBStamp: make([]int32, nodes),
		sendStamp:  make([]int32, nodes),
		act:        make([]uint64, words),
		actNext:    make([]uint64, words),
		woke:       make([]uint64, words),
		wokeNext:   make([]uint64, words),
		sum:        make([]uint64, sums),
		sumNext:    make([]uint64, sums),
	}
	for i := range b.logs {
		b.logs[i].shard = uint32(i)
	}
	b.logs[0].bound = int32(slots)
	return b
}

// debugPoisonRecv, when set by a test, poisons the expired side of the SoA
// delivery state at every round flip: every entry of the retired send logs
// (up to capacity) and broadcast buffer, and the retired slot and
// broadcast stamps (zeroed — 0 is the permanent "never written" sentinel,
// so a stamp bug that skips an occupancy test reads poisoned messages
// instead of plausible stale ones). A read path that dodges an occupancy
// test then observes Kind == poisonKind instead of silently stale data.
// Too costly to leave on outside tests.
var debugPoisonRecv = false

// poisonKind marks a poisoned log or broadcast entry (debugPoisonRecv).
const poisonKind int32 = -0x7011

func poison(msgs []Message) {
	for i := range msgs {
		msgs[i] = Message{Kind: poisonKind}
	}
}

// runState is the per-phase simulation state: a window of the network's
// persistent engine buffers plus this phase's round counters and pool. The
// struct itself is recycled across phases (Network.rs) — rewritten
// wholesale at phase start — so starting a phase allocates nothing but what
// the phase's engine needs (a pool and per-worker Ctxs, parallel only).
type runState struct {
	net         *Network
	proc        NodeProc
	base        int64 // network clock at phase start; the protocol-visible round is round-base
	round       int64 // global round number, monotone across phases
	snow        int32 // epoch-relative round: int32(round - net.epoch), the value every buffer stamp encodes; renormStamps keeps it < stampRenormThreshold
	inFlight    int64
	activeCount int64       // nodes whose last Step returned active (summed per shard)
	workers     int         // goroutines stepping nodes; <= 1 means sequential
	fault       *faultState // the network's compiled scenario at phase start; nil = fault-free
	pool        *pool       // persistent worker pool; nil until first parallel step
	stepJob     job         // hoisted step-wave closure (no per-round allocation)
	stepBounds  []int32     // sender-weighted edge-balanced shard boundaries, 64-aligned (shard.go)
	shardCtxs   []*shardCtx // per-worker Ctx + send counter, built once per parallel phase (ensurePool)
	seqSent     int64       // the sequential engine's per-round message counter (hoisted: a per-round local escapes through the Ctx)
	seqCtx      Ctx         // the sequential engine's one Ctx, reused every round of the phase
	*engineBuffers
}

// sparseRoundCap is the stepped-node ceiling under which ActivityStats
// counts a round as sparse: min(n, n/8+16), the frontier cap of the
// engine's former sparse round mode, kept so the sparse fraction reads the
// same across that change.
func sparseRoundCap(n int) int64 { return int64(min(n, n/8+16)) }

// stampRenormThreshold is the epoch-relative round at which the engine
// renormalizes every buffer stamp back toward clockBase (renormStamps),
// keeping the int32 stamps from ever wrapping. A few rounds of headroom
// below MaxInt32 cover the +2 clock advance at phase end. A variable, not a
// const, so the epoch-renormalization test can force the boundary on a tiny
// network instead of executing 2^31 rounds.
var stampRenormThreshold = int32(math.MaxInt32 - 8)

// renormStamps rebases every live stamp by delta = snow - clockBase, so the
// current round's stamp value returns to clockBase and the int32 encoding
// never wraps. Runs on the coordinator at a round boundary — before the
// step wave, like fault application — so both engines rebase at the same
// instant and bit-identity holds. The mapping preserves every occupancy
// test exactly: a live stamp (== snow-1) maps to clockBase-1, and anything
// older maps to <= 0, clamped to the permanent "never written" 0 — stale
// stamps were already unable to match any future round, and stay so.
// O(n + 2m), amortized over ~2^31 rounds: free. The scheduling bitsets
// carry no round numbers, so the slot and broadcast stamps are the only
// surface to rebase.
func (st *runState) renormStamps() {
	delta := st.snow - clockBase
	if delta <= 0 {
		return
	}
	for _, a := range [][]int32{st.curStamp, st.nextStamp, st.curBStamp, st.nextBStamp, st.sendStamp} {
		rebaseStamps(a, delta)
	}
	st.snow = clockBase
	st.net.epoch += int64(delta)
}

func rebaseStamps(a []int32, delta int32) {
	for i, s := range a {
		if s <= delta {
			if s != 0 {
				a[i] = 0
			}
		} else {
			a[i] = s - delta
		}
	}
}

// engineWorkers is the number of goroutines that step the network's
// phases, the same at every phase: the network's worker count, at most one
// per node and at least one. It is also the number of send logs, so it is
// capped where a ref's shard bits would leave a log index too few bits: a
// log never holds more entries than the network has slots. Only a network
// near the CSR's 2^31 half-edge limit meets that cap.
func (n *Network) engineWorkers() int {
	workers := max(min(n.workers, n.N()), 1)
	if lim := 32 - bits.Len32(uint32(max(len(n.csr.PortTo)-1, 0))); uint64(workers) > 1<<lim {
		workers = 1 << lim
	}
	return workers
}

func newRunState(n *Network, p NodeProc) *runState {
	nn := n.N()
	workers := n.engineWorkers()
	if n.buf == nil {
		n.buf = newEngineBuffers(n)
	}
	st := n.rs
	if st == nil {
		st = new(runState)
		n.rs = st
	}
	*st = runState{
		net:           n,
		proc:          p,
		base:          n.clock,
		round:         n.clock,
		snow:          int32(n.clock - n.epoch),
		workers:       workers,
		fault:         n.fault,
		engineBuffers: n.buf,
	}
	st.seqCtx = Ctx{st: st, sent: &st.seqSent, log: &n.buf.logs[0]}
	// A phase's first round steps every node: act and its summary start
	// all ones (bits past n masked off), everything else zero, and every
	// send log is empty. Rewriting them here, not at phase end, is what
	// keeps the bits and log entries an aborted phase left behind (a
	// protocol panic ends a round before its flip) out of this one.
	b := n.buf
	clear(b.actNext)
	clear(b.woke)
	clear(b.wokeNext)
	clear(b.sumNext)
	b.wakes = b.wakes[:0]
	for i := range b.shardWakes {
		b.shardWakes[i] = b.shardWakes[i][:0]
	}
	for i := range b.logs {
		b.logs[i].n = 0
	}
	fillOnes(b.act, nn)
	fillOnes(b.sum, len(b.act))
	return st
}

// fillOnes sets bits [0, n) of the bitset a and clears the rest.
func fillOnes(a []uint64, n int) {
	for i := range a {
		a[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		a[len(a)-1] = 1<<r - 1
	}
}

// drain steps the scheduled nodes of bitset words [lo, hi): every set bit
// of act|woke, in ascending node order, skipping crashed nodes. It is the
// whole round body of the sequential engine (all words) and of each
// parallel worker (its shard's words). Only words whose summary bit is set
// are read. A node whose Step returns active gets its actNext bit (and its
// word the sumNext bit); each word is zeroed once its nodes have stepped,
// so a drained range is all zero and the set it held can neither repeat
// nor leak. Returns how many stepped nodes came back active (the
// quiescence count) and how many stepped at all (the awake% counter).
//
// The order is ascending and duplicate-free by construction — bit order
// within a word, word order across words — so it is the order of the
// dense reference scan with no sort, cap or mode switch. ForRecv's fast
// reject reads the node's woke bit while its word is being drained, before
// the word is zeroed.
func (st *runState) drain(ctx *Ctx, lo, hi int) (active, stepped int64) {
	b := st.engineBuffers
	var crashed []bool
	if st.fault != nil {
		crashed = st.fault.crashed
	}
	for j := lo >> 6; j<<6 < hi; j++ {
		s := b.sum[j]
		if j<<6 < lo {
			s &= ^uint64(0) << (lo - j<<6)
		}
		if (j+1)<<6 > hi {
			s &= 1<<(hi-j<<6) - 1
		}
		for ; s != 0; s &= s - 1 {
			i := j<<6 | bits.TrailingZeros64(s)
			var next uint64
			for w := b.act[i] | b.woke[i]; w != 0; w &= w - 1 {
				v := i<<6 | bits.TrailingZeros64(w)
				if crashed != nil && crashed[v] {
					continue
				}
				ctx.v = v
				stepped++
				if st.proc.Step(ctx, v) {
					next |= 1 << (v & 63)
					active++
				}
			}
			b.act[i], b.woke[i] = 0, 0
			if next != 0 {
				b.actNext[i] = next
				ctx.mark(&b.sumNext[j], 1<<(i&63))
			}
		}
	}
	return active, stepped
}

// quiescent reports whether the phase is over: at least one round ran, the
// last one set no actNext bit (activeCount counts them, so the test is
// O(1)) and sent nothing, and no timed wake-up is pending. With
// inFlight == 0 no woke bit is set either; a dead-port Send that was
// counted-then-dropped keeps inFlight > 0 and correctly defers quiescence
// by the round the model charges for it.
func (st *runState) quiescent() bool {
	return st.round != st.base && st.inFlight == 0 && st.activeCount == 0 && len(st.wakes) == 0
}

// beginRound opens a round on the coordinator, before any node steps:
// stamp renormalization and fault application run here on both engines,
// so every worker observes the same stamps and crashed/dead state for the
// whole round, and the in-flight deliveries a fault destroys are gone on
// both engines alike.
func (st *runState) beginRound() {
	if st.snow >= stampRenormThreshold {
		st.renormStamps()
	}
	st.applyFaults()
}

// endRound closes a round on the coordinator: it records the round's
// counters and flips the buffers, so messages written this round become
// next round's deliveries, and the wake-ups due next round join its active
// set. Stale stamps in the reused slot buffer are at least two rounds old,
// so they can never match a future occupancy test — no clearing. Returns
// sent, the round's message count.
func (st *runState) endRound(active, stepped, sent int64) int64 {
	st.activeCount = active
	st.net.stepped += stepped
	if st.round != st.base && stepped <= sparseRoundCap(st.net.N()) {
		st.net.sparseRounds++
	}
	b := st.engineBuffers
	b.curRef, b.nextRef = b.nextRef, b.curRef
	b.curStamp, b.nextStamp = b.nextStamp, b.curStamp
	for i := range b.logs {
		lg := &b.logs[i]
		b.curLog[i], lg.msgs = lg.msgs[:lg.n], b.curLog[i][:cap(b.curLog[i])]
		lg.n = 0
	}
	b.curBMsg, b.nextBMsg = b.nextBMsg, b.curBMsg
	b.curBStamp, b.nextBStamp = b.nextBStamp, b.curBStamp
	b.act, b.actNext = b.actNext, b.act
	b.woke, b.wokeNext = b.wokeNext, b.woke
	clear(b.sum) // the drained words are zero, so their summary is too
	b.sum, b.sumNext = b.sumNext, b.sum
	if debugPoisonRecv {
		// Poison the retired send logs and broadcast buffer: their
		// messages read as poison and the stamps as never-written, so a
		// read path that dodges an occupancy test cannot see plausible
		// stale data. The zeroed stamps are semantically invisible: stale
		// stamps and 0 both fail every occupancy and double-send test.
		for i := range b.logs {
			poison(b.logs[i].msgs)
		}
		poison(b.nextBMsg)
		clear(b.nextStamp)
		clear(b.nextBStamp)
	}
	st.inFlight = sent
	st.round++
	st.snow++
	st.activeCount += st.wakeDue()
	return sent
}

// step runs one synchronous round and returns the number of messages sent.
// Sequential engine: one drain over every bitset word, with Send setting
// wokeNext bits in place (single writer).
func (st *runState) step() int64 {
	if st.workers > 1 {
		return st.stepParallel()
	}
	st.beginRound()
	st.seqSent = 0
	active, stepped := st.drain(&st.seqCtx, 0, len(st.act))
	return st.endRound(active, stepped, st.seqSent)
}
