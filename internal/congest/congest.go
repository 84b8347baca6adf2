package congest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"shortcutpa/internal/graph"
)

// envWorkers reads the CONGEST_WORKERS environment override once: a CI/ops
// knob that makes every new network default to that engine parallelism
// (SetWorkers still overrides per network). Results are bit-identical at
// any setting, so the knob only changes which engine executes; the
// race-short CI matrix uses it to drive the whole suite through the
// parallel engine's pool and sharded wake scan.
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
// round 0, any round with incoming messages, and any round following a Step
// that returned true (active). Returning false parks the node until a
// message wakes it. The paper's protocols are uniform, so per-node state
// lives in flat protocol-owned arrays indexed by v, not in the NodeProc
// value, and one phase costs O(1) allocations regardless of n.
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
	portSlot     []int32 // per receiver half-edge RowStart[v]+p: the slot holding the message arriving on port p
	slotPort     []int32 // per slot: the receiver-side arrival port (inverse of portSlot within each row) — slots store no ports, readers derive them here
	scratch      *Scratch
	seed         int64
	ids          []int64
	idSorted     []int64 // node IDs in ascending order: the mapless NodeByID index
	idNode       []int32 // idNode[k] is the node whose ID is idSorted[k]
	rngs         []*rand.Rand
	total        Metrics
	phases       []Phase
	workers      int
	plan         *shardPlan // cached edge-balanced shard boundaries (shard.go); nil until first parallel wave, dropped by SetWorkers/Reset
	running      bool       // a phase is executing; guards Reset/SetWorkers/SetScenario mid-phase
	denseOnly    bool       // SetSparseRounds(false): every round takes the dense full-range path
	stepped      int64      // Step invocations across all rounds since construction/ResetMetrics (awake%: stepped / (n * Rounds))
	sparseRounds int64      // rounds drained from the frontier lists rather than the full node range
	clock        int64      // global round counter across phases; stamps never repeat
	epoch        int64      // stamp epoch base: the int32 buffer stamps encode clock-epoch (see renormStamps)
	scenario     *Scenario  // attached fault scenario (scenario.go); nil = fault-free
	fault        *faultState
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
// applied both to construction (the O(m) slot-geometry fill shards across
// a worker pool when workers > 1) and, like SetWorkers, to every
// subsequent phase. The built network is bit-identical at any setting.
func NewNetworkWorkers(g *graph.Graph, seed int64, workers int) *Network {
	n := g.N()
	net := &Network{
		g:        g,
		csr:      g.CSR(),
		seed:     seed,
		ids:      make([]int64, n),
		idSorted: make([]int64, n),
		idNode:   make([]int32, n),
		rngs:     make([]*rand.Rand, n),
		workers:  workers,
	}
	// Arbitrary unique IDs: an injective affine map of a seeded permutation,
	// so IDs are unique, O(log n)-bit scale, and in random order (the KT0
	// "arbitrary ID" assumption; see ARCHITECTURE.md, "Substitutions", on
	// leader-election messages).
	// The map is strictly increasing in perm[v], so the sorted ID index
	// behind NodeByID needs no sort — and no map: scattering by perm rank
	// builds the ascending (id, node) arrays in the same O(n) pass.
	// Per-node PRNGs are created lazily (see rng): most protocols never
	// draw randomness at most nodes, so the network holds one nil pointer
	// per node until the first Ctx.Rand.
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for v := 0; v < n; v++ {
		k := perm[v]
		id := int64(k)*2654435761 + 12345
		net.ids[v] = id
		net.idSorted[k] = id
		net.idNode[k] = int32(v)
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
// (sender, port) pairs by construction. portSlot maps the receiver's ports
// to the same slots: for receiver v, portSlot[RowStart[v]+p] is the slot
// holding the message that arrives on port p — the O(1) lookup behind
// RecvOn. slotPort is its inverse within each row: slotPort[s] is the
// arrival port of slot s. Slots themselves store only the 32-byte Message
// (no per-round port copy); every read path that reports a port derives it
// from this static table instead.
//
// With workers > 1 the fill shards across a temporary worker pool (see
// fillGeometryParallel); the sequential pass below is the reference the
// parallel one must match slot for slot.
func (n *Network) fillGeometry() {
	nodes := n.N()
	rs := n.csr.RowStart
	n.destSlot = make([]int32, len(n.csr.PortTo))
	n.portSlot = make([]int32, len(n.csr.PortTo))
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
			n.portSlot[rs[v]+n.csr.PortRev[h]] = slot
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

// NodeByID returns the node index with the given ID, or -1. The lookup is
// a binary search of the sorted (id, node) index built in NewNetwork — at
// n = 10^6 the old map's inserts dominated construction, while the sorted
// pair of flat arrays costs 12 bytes/node and one O(n) scatter pass.
func (n *Network) NodeByID(id int64) int {
	k := sort.Search(len(n.idSorted), func(i int) bool { return n.idSorted[i] >= id })
	if k < len(n.idSorted) && n.idSorted[k] == id {
		return int(n.idNode[k])
	}
	return -1
}

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

// Workers returns the configured engine parallelism (0 or 1 = sequential).
func (n *Network) Workers() int { return n.workers }

// SetWorkers configures how many workers RunNodes uses for every subsequent
// phase: k <= 1 selects the sequential engine, k > 1 shards each round
// across k goroutines. The choice affects wall-clock time only — results,
// metrics, and per-node PRNG streams are bit-identical either way.
//
// Contract: k < 0 is clamped to 0 (sequential — 0 and 1 are equivalent, 0
// being "unset"). The worker count is latched when a phase starts, so it can
// never change mid-phase; calling SetWorkers while a phase is running (from
// inside a Step) panics — that is a protocol bug, like sending twice on one
// port, not a runtime condition.
func (n *Network) SetWorkers(k int) {
	if n.running {
		panic("congest: SetWorkers called while a phase is running")
	}
	if k < 0 {
		k = 0
	}
	if k != n.workers {
		// The cached shard boundaries are per worker count; drop them so
		// the next parallel phase recomputes for the new k. (shardPlan also
		// rejects a stale count by key, so this is for memory hygiene as
		// much as correctness: no boundary array outlives its setting.)
		n.plan = nil
	}
	n.workers = k
}

// SetSparseRounds toggles sparse-activity round execution (default on):
// when on, a round whose frontier — the nodes active last round plus the
// nodes woken by a delivery — fit under the engine's frontier caps is
// drained from per-shard frontier lists in ascending node order instead of
// scanning the whole node range, so quiet rounds cost O(awake + delivered)
// rather than O(n + slots). Off forces the classic dense scan every round.
//
// The setting affects wall-clock time only: the stepped-node set, its
// order, every PRNG stream, and all metrics are bit-identical either way
// (the equivalence harness pins this). Exists for benchmarks and the
// dense-vs-sparse equivalence leg; production callers leave it on. Like
// SetWorkers, the setting is latched when a phase starts, and calling it
// while a phase is running panics.
func (n *Network) SetSparseRounds(on bool) {
	if n.running {
		panic("congest: SetSparseRounds called while a phase is running")
	}
	n.denseOnly = !on
}

// SparseRounds reports whether sparse-activity round execution is enabled.
func (n *Network) SparseRounds() bool { return !n.denseOnly }

// ActivityStats reports the execution-activity counters accumulated since
// construction or the last ResetMetrics: how many node Steps ran in total
// (the mean awake fraction is stepped / (n * Total().Rounds)) and how many
// rounds were drained from the frontier lists instead of the full node
// range. Purely observational — the counters never influence execution.
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
//     without clearing: stale slot and wake stamps are strictly older than
//     any round the next phase can test for. Protocols never see the
//     absolute clock (Ctx.Round is phase-relative), so a fresh network and
//     a reset one are indistinguishable from inside a Step.
//
// The engine's per-node scheduling flags need no attention: a phase's first
// round steps every node and rewrites active[], and the wake stamps are
// round-tagged, so a monotone clock makes stale entries inert
// even after a phase aborted on BudgetExceededError.
//
// Reset must not be called while a phase is running (it panics), and it
// does not change the SetWorkers setting: engine parallelism is the
// caller's serving-side knob, not protocol-visible state.
func (n *Network) Reset() {
	if n.running {
		panic("congest: Reset called while a phase is running")
	}
	for v := range n.rngs {
		n.rngs[v] = nil
	}
	// Shard boundaries are topology-determined, so a cached plan would stay
	// valid across Reset — but as-new means as-new: a reset network holds no
	// derived scheduling state, and recomputing is O(workers log n).
	n.plan = nil
	if n.fault != nil {
		n.fault.rewind()
	}
	n.ResetMetrics()
}

// MergeCosts folds another accounting total into this network's, for
// algorithms that run auxiliary simulations (e.g. MSTs under reweighted
// copies of the same topology).
func (n *Network) MergeCosts(m Metrics) {
	n.total = n.total.Add(m)
	n.phases = append(n.phases, Phase{Name: "merged", Cost: m})
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

// RunNodes executes one protocol phase: p.Step(ctx, v) is invoked for every
// scheduled node v. The phase ends at global quiescence (no active node, no
// message in flight) or fails with BudgetExceededError after maxRounds. The
// phase cost is recorded under name and added to the network totals. The
// engine that runs it — sequential or a worker pool — is the network's
// SetWorkers setting; the two are bit-identical.
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
// flipping 2m-slot delivery buffers plus the per-node scheduling state,
// laid out structure-of-arrays. Allocated once (first phase) and
// reused by every subsequent phase — the global round clock guarantees
// stale stamps can never match, so phases need no clearing. Construction is
// allocation only, no initialization pass: the clock starts at clockBase,
// so the zero value every fresh array carries already means "never written"
// to each occupancy test. At n = 10^6 the old init loops (static Port
// prefill + stamp sentinels) were hundreds of MB of first-touch writes —
// the dominant setup cost; now a page is faulted in by the first round that
// actually uses it. See README.md "Memory layout".
//
// The slot arrays cost 72 B per slot resident (2 x 32 B Message + 2 x 4 B
// stamp); the arrival port is not stored per slot per round — it is a
// static property of the slot geometry (Network.slotPort), derived by the
// read paths that report it.
type engineBuffers struct {
	// Rank-indexed delivery slots (see NewNetwork): slot s in node v's CSR
	// range holds the message from v's (s-RowStart[v])-th smallest-index
	// neighbor. cur* is what receives read this round; next* is what Send
	// writes. A slot is occupied iff its stamp equals the epoch-relative
	// round it was sent in: curStamp[s] == snow-1 (sent last round),
	// nextStamp[s] == snow, where snow = round - epoch fits int32 by the
	// renormStamps pass (see runState.renormStamps).
	curMsg    []Message
	nextMsg   []Message
	curStamp  []int32
	nextStamp []int32
	// wake*[v] stamps the last epoch-relative round in which some sender
	// targeted v; the scheduler's "has incoming messages" test is
	// wakeCur[v] == snow-1.
	wakeCur  []int32
	wakeNext []int32
	active   []bool
	slots    int
	// Frontier lists (sparse-activity round execution): two double-buffered
	// node-index lists per round — the nodes whose last Step returned active
	// (front*) and the nodes woken by a delivery (woke*). A round whose
	// frontier fit under frontierCap is drained from these lists in ascending
	// node order instead of scanning the full node range, making round cost
	// O(awake), not O(n); dense rounds keep building them so the engine can
	// drop back to sparse the moment activity does. Like every other engine
	// buffer: allocation only, no init (lengths live in the run state and
	// start at 0), reused by every phase.
	frontA, frontB []int32
	wokeA, wokeB   []int32
	// dirty is the parallel engine's sender-side delivery tracking: during
	// the step wave each worker appends the receiver of every slot write to
	// its own segment (segmented by the shard's half-edge span, so capacity
	// can never be exceeded — a worker sends at most its span). The
	// coordinator merges the segments into next round's woken lists, making
	// wake derivation O(delivered) instead of the O(slots) scan wave.
	// Lazily allocated by the first parallel phase (ensurePool): sequential
	// networks never pay its 4 B/slot. Published by an atomic flag so
	// MemFootprint stays callable while a phase is stepping.
	dirtyReady atomic.Bool
	dirty      []int32
}

func newEngineBuffers(n *Network) *engineBuffers {
	nodes, slots := n.N(), len(n.csr.PortTo)
	// No initialization: zero stamps can never equal a real round (the
	// clock starts at clockBase >= 2), and slot contents are only read
	// behind a matching stamp.
	return &engineBuffers{
		curMsg:    make([]Message, slots),
		nextMsg:   make([]Message, slots),
		curStamp:  make([]int32, slots),
		nextStamp: make([]int32, slots),
		wakeCur:   make([]int32, nodes),
		wakeNext:  make([]int32, nodes),
		active:    make([]bool, nodes),
		slots:     slots,
		frontA:    make([]int32, nodes),
		frontB:    make([]int32, nodes),
		wokeA:     make([]int32, nodes),
		wokeB:     make([]int32, nodes),
	}
}

// debugPoisonRecv, when set by a test, poisons the expired side of the SoA
// delivery state at every round flip: every message in the retired slot
// buffer, and the retired slot stamps (zeroed — 0 is the permanent "never
// written" sentinel, so a stamp bug that skips an occupancy test reads
// poisoned messages instead of plausible stale ones). A read path that
// dodges an occupancy test then observes Kind == poisonKind instead of
// silently stale data. Too costly to leave on outside tests.
var debugPoisonRecv = false

// poisonKind marks a poisoned slot message (debugPoisonRecv).
const poisonKind int32 = -0x7011

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
	started     bool
	inFlight    int64
	activeCount int64       // nodes whose last Step returned active (summed per shard)
	workers     int         // goroutines stepping nodes; <= 1 means sequential
	fault       *faultState // the network's compiled scenario at phase start; nil = fault-free
	pool        *pool       // persistent worker pool; nil until first parallel step
	stepJob     job         // hoisted step-wave closure (no per-round allocation)
	scanJob     job         // hoisted wake-scan-wave closure
	stepBounds  []int32     // sender-weighted edge-balanced shard boundaries (shard.go)
	slotBounds  []int32     // receiver-slot-weighted boundaries for the wake scan
	shardCtxs   []*shardCtx // per-worker Ctx + send counter, built once per parallel phase (ensurePool)
	seqSent     int64       // the sequential engine's per-round message counter (hoisted: a per-round local escapes through the Ctx)
	seqCtx      Ctx         // the sequential engine's one Ctx, reused every round of the phase

	// Sparse-activity execution state (see frontierCap for the policy).
	// dense is latched per round: the phase's first round always scans the
	// full range (round == base steps everyone), and any round whose
	// frontier recording overflowed its caps forces the next round dense.
	dense     bool // this round drains the full node range
	denseOnly bool // network knob (SetSparseRounds(false)): never drain sparse
	seqCap    int  // the sequential engine's frontier-segment capacity, frontierCap(n)
	// The frontier lists for this round (cur: drained this round) and the
	// next (next: appended this round), swapped at flip like the delivery
	// buffers. facts hold active nodes — appended in ascending order by the
	// step loops, inherently duplicate-free; fwokes hold woken nodes —
	// deduplicated against the wakeNext stamp at append time (so no new
	// stamp surface exists for renormStamps to rebase), sorted at drain
	// time. The parallel engine segments the same arrays by stepBounds;
	// segment lengths live in the shardCtxs, the sequential lengths below.
	factCur, factNext   []int32
	fwokeCur, fwokeNext []int32
	nActCur, nActNext   int32 // sequential list lengths (appended entries, capped at seqCap)
	nWokeCur, nWokeNext int32 // nWokeNext counts all woken nodes; entries beyond seqCap are dropped (overflow)
	*engineBuffers
}

// frontierCap bounds how many frontier entries a segment over m items (a
// shard's nodes, or — for the dirty lists — a shard's half-edge span) may
// record before the recording is declared overflowed and the next round
// falls back to the dense path. The cap is what keeps the dense storm at
// dense-scan cost: once a list fills, appends stop (one compare per event),
// so a fully active round pays O(cap) extra work, not O(n). An eighth of
// the segment keeps the sparse drain (which also sorts the woken list)
// comfortably cheaper than the scan it replaces; the +16 slack stops tiny
// shards from thrashing between modes. denseOnly zeroes every cap, which
// makes overflow — and therefore the dense path — unconditional.
func frontierCap(m int, denseOnly bool) int {
	if denseOnly {
		return 0
	}
	c := m/8 + 16
	if c > m {
		c = m
	}
	return c
}

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
// O(n + 2m), amortized over ~2^31 rounds: free.
//
// The sparse-execution state deliberately adds no stamp surface here: the
// frontier and dirty lists hold node indices, not stamps, and the woken
// dedup test compares against wakeNext — already rebased below — so a
// renormalization boundary falling between a sparse append and its drain
// changes nothing (renorm_test.go crosses it in both modes).
func (st *runState) renormStamps() {
	delta := st.snow - clockBase
	if delta <= 0 {
		return
	}
	rebaseStamps(st.curStamp, delta)
	rebaseStamps(st.nextStamp, delta)
	rebaseStamps(st.wakeCur, delta)
	rebaseStamps(st.wakeNext, delta)
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

func newRunState(n *Network, p NodeProc) *runState {
	nn := n.N()
	workers := n.workers
	if workers > nn {
		workers = nn
	}
	if workers < 1 {
		workers = 1
	}
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
		dense:         true, // a phase's first round steps every node, so it is dense by definition
		denseOnly:     n.denseOnly,
		seqCap:        frontierCap(nn, n.denseOnly),
		factCur:       n.buf.frontA,
		factNext:      n.buf.frontB,
		fwokeCur:      n.buf.wokeA,
		fwokeNext:     n.buf.wokeB,
		engineBuffers: n.buf,
	}
	st.seqCtx = Ctx{st: st, sent: &st.seqSent}
	return st
}

// stepRange steps the scheduled nodes of [lo, hi) through the phase's state
// machine — the dense inner loop of the sequential engine (full range) and
// each parallel worker (its shard). It returns how many stepped nodes came
// back active, which is the range's total active count: a node left
// unstepped is never active (an active node is always scheduled, so its
// flag is rewritten every round — crashed nodes are the one exception, and
// their stale flags sit behind the crash check in the faulty loop), plus
// how many nodes it stepped at all (the awake% observability counter).
//
// Each active node is also appended, in ascending order, to actNext — the
// next round's active-frontier list. actNext's length is the frontier cap:
// appends past it are dropped (active keeps counting), and the caller
// detects the overflow as active > len(actNext) and forces the next round
// dense, so a dropped entry is never a lost node.
func (st *runState) stepRange(ctx *Ctx, lo, hi int, actNext []int32) (active, stepped int64) {
	if f := st.fault; f != nil {
		return st.stepRangeFaulty(ctx, lo, hi, actNext, f)
	}
	for v := lo; v < hi; v++ {
		if st.scheduled(v) {
			ctx.v = v
			stepped++
			if st.active[v] = st.proc.Step(ctx, v); st.active[v] {
				if active < int64(len(actNext)) {
					actNext[active] = int32(v)
				}
				active++
			}
		}
	}
	return active, stepped
}

// stepFrontier is the sparse counterpart of stepRange: instead of scanning
// [lo, hi) and testing scheduled(v) per node, it drains the round's
// frontier — act (the nodes whose last Step returned active, inherently
// sorted and duplicate-free) merged with woke (the nodes woken by a
// delivery, sorted by the caller, duplicate-free by the wakeNext-stamp
// dedup at append time) — stepping each node exactly once in ascending
// node order. The stepped set equals {v in [lo, hi) : scheduled(v)}: act
// reproduces the active[v] disjunct and woke the wakeCur[v] == snow-1
// disjunct (the stamp is written iff the node is appended), and the
// round == base disjunct never reaches here (a phase's first round is
// dense by construction). Identical order, identical per-node work,
// identical PRNG streams — bit-identical to the dense scan, minus the
// O(range) walk.
//
// Crashed nodes are skipped exactly as the dense loop skips them; since a
// skipped node is never re-appended, a crash also evicts the node from
// every future frontier. Active appends follow stepRange's cap contract.
func (st *runState) stepFrontier(ctx *Ctx, act, woke, actNext []int32) (active, stepped int64) {
	f := st.fault
	ia, iw := 0, 0
	for ia < len(act) || iw < len(woke) {
		var v int
		switch {
		case iw >= len(woke):
			v = int(act[ia])
			ia++
		case ia >= len(act):
			v = int(woke[iw])
			iw++
		case act[ia] < woke[iw]:
			v = int(act[ia])
			ia++
		case woke[iw] < act[ia]:
			v = int(woke[iw])
			iw++
		default: // same node on both lists: step once, advance both
			v = int(act[ia])
			ia++
			iw++
		}
		if f != nil && f.crashed[v] {
			continue
		}
		ctx.v = v
		stepped++
		a := st.proc.Step(ctx, v)
		st.active[v] = a
		if a {
			if active < int64(len(actNext)) {
				actNext[active] = int32(v)
			}
			active++
		}
	}
	return active, stepped
}

func (st *runState) quiescent() bool {
	if !st.started {
		return false
	}
	if st.inFlight > 0 {
		return false
	}
	// activeCount is the active-frontier mass: the step loops count every
	// node they append to (or past the cap of) the next active list, so
	// quiescence detection is O(1) — no serial scan of the per-node active
	// flags. Frontier emptiness and this test coincide exactly: with
	// inFlight == 0 nothing was sent, so the woken list is empty (even a
	// dead-port Send that was counted-then-dropped keeps inFlight > 0 and
	// correctly defers quiescence by the round the model charges for it),
	// and the active list is empty iff activeCount == 0.
	return st.activeCount == 0
}

// scheduled reports whether node v runs this round: every node at the
// phase's first round, then active nodes and nodes with deliveries.
func (st *runState) scheduled(v int) bool {
	return st.active[v] || st.round == st.base || st.wakeCur[v] == st.snow-1
}

// flip ends a round: messages written this round become next round's
// deliveries. Stale stamps in the reused buffer are at least two rounds
// old, so they can never match a future occupancy test — no clearing.
func (st *runState) flip() {
	b := st.engineBuffers
	b.curMsg, b.nextMsg = b.nextMsg, b.curMsg
	b.curStamp, b.nextStamp = b.nextStamp, b.curStamp
	b.wakeCur, b.wakeNext = b.wakeNext, b.wakeCur
	// The frontier lists flip with the delivery buffers: what was appended
	// this round is drained next round. The lengths are swapped by the
	// engine that owns them (runState fields sequentially, shardCtxs in
	// parallel) right after.
	st.factCur, st.factNext = st.factNext, st.factCur
	st.fwokeCur, st.fwokeNext = st.fwokeNext, st.fwokeCur
	if debugPoisonRecv {
		// Poison the retired slot buffer: its messages read as poison and
		// its stamps as never-written, so a read path that dodges an
		// occupancy test cannot see plausible stale data. The zeroed stamps
		// are semantically invisible: stale stamps and 0 both fail every
		// occupancy and double-send test.
		for i := range b.nextMsg {
			b.nextMsg[i] = Message{Kind: poisonKind}
		}
		clear(b.nextStamp)
	}
}

// step runs one synchronous round and returns the number of messages sent.
// Sequential engine: one dense scan or one sparse frontier drain, with the
// wake stamps and the woken-frontier list written inline by Send (single
// writer). The mode for the next round falls out of this round's recording:
// any list that overflowed its frontierCap forces dense; otherwise the
// lists are complete and the next round drains them.
func (st *runState) step() int64 {
	if st.workers > 1 {
		return st.stepParallel()
	}
	st.started = true
	if st.snow >= stampRenormThreshold {
		st.renormStamps()
	}
	st.applyFaults()
	st.seqSent = 0
	actNext := st.factNext[:st.seqCap]
	var active, stepped int64
	if st.dense {
		active, stepped = st.stepRange(&st.seqCtx, 0, st.net.N(), actNext)
	} else {
		// The woken list was appended in send order; the drain needs
		// ascending node order. slices.Sort is allocation-free, keeping
		// steady-state rounds at zero allocs.
		woke := st.fwokeCur[:st.nWokeCur]
		slices.Sort(woke)
		active, stepped = st.stepFrontier(&st.seqCtx, st.factCur[:st.nActCur], woke, actNext)
		st.net.sparseRounds++
	}
	st.activeCount = active
	st.net.stepped += stepped
	overflow := active > int64(st.seqCap) || int(st.nWokeNext) > st.seqCap
	st.flip()
	st.nActCur, st.nActNext = int32(min(active, int64(st.seqCap))), 0
	st.nWokeCur, st.nWokeNext = min(st.nWokeNext, int32(st.seqCap)), 0
	st.dense = st.denseOnly || overflow
	st.inFlight = st.seqSent
	st.round++
	st.snow++
	return st.inFlight
}
