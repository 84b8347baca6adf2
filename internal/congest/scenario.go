package congest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// scenario.go is the fault-injection layer: a Scenario scripts node crashes
// and edge drops — scheduled at exact rounds or drawn from a seeded
// per-round fault rate — and the engine applies them at round boundaries,
// before that round's deliveries are read. The semantics are fail-stop with
// boundary message loss:
//
//   - a crashed node stops stepping from its crash round on: its Step is
//     never invoked again, it sends nothing, and it draws no further PRNG
//     values, so the streams of surviving nodes are untouched;
//   - a dead edge (dropped directly, or incident to a crashed node) delivers
//     nothing: messages in flight across it at the fault boundary are
//     destroyed, and every later Send into it is counted in Metrics.Messages
//     and then dropped — the sender pays the model cost but the receiver
//     never sees the message. CanSend stays true on a dead port (the port
//     accepts sends; they vanish), and the one-message-per-port rule is not
//     enforced on dead ports, since no slot write exists to detect a double
//     send against;
//   - surviving nodes observe faults only through silence and through
//     Ctx.PortDown(p), which reports whether port p's edge is dead. A node
//     whose only pending delivery was destroyed at the boundary is still
//     scheduled that round (its wake bit was set before the fault) and
//     reads no delivery — the same on both engines.
//
// Determinism: faults are applied by the coordinator between rounds, never
// inside a worker wave, and scheduled events are totally ordered by
// (round, declaration order). Seeded-random faults draw from one PRNG owned
// by the fault state, again coordinator-only. The whole construction is
// therefore bit-identical across the sequential and parallel engines and
// across Reset reuse — the scenario-equivalence harness leg
// (internal/equivalence) proves it.
//
// Scenario rounds count executed rounds across the network's whole lifetime
// since construction or Reset, not per phase: round 0 is the first round the
// first phase runs, and the clock keeps counting through every later phase.
// That makes "crash node 17 at round 100" reproducible for a protocol made
// of many phases, independent of how the rounds divide into them.

// NodeCrash schedules node Node to crash at scenario round Round: the node
// executes rounds 0..Round-1 and is dead from Round on.
type NodeCrash struct {
	Node  int
	Round int64
}

// EdgeDrop schedules the edge between U and V to die at scenario round
// Round: messages in flight across it at that boundary are destroyed, and
// no later message crosses it in either direction.
type EdgeDrop struct {
	U, V  int
	Round int64
}

// Scenario scripts the faults of one simulation. The zero value (and nil)
// is the fault-free scenario. Scheduled Crashes and Drops apply at exact
// rounds; Rate adds seeded-random faults on top: each round boundary draws
// twice from the fault PRNG, crashing one uniformly random node with
// probability Rate and dropping one uniformly random edge with probability
// Rate (a draw that lands on an already-dead target is a no-op, so the
// drawn stream — and therefore every later draw — is independent of how
// many faults already landed).
//
// FaultSeed seeds the fault PRNG; 0 derives it from the network's master
// seed, so the same (graph, seed, scenario) triple always replays the same
// execution.
type Scenario struct {
	Crashes   []NodeCrash
	Drops     []EdgeDrop
	Rate      float64
	FaultSeed int64
}

// IsZero reports whether s scripts no faults at all.
func (s *Scenario) IsZero() bool {
	return s == nil || (len(s.Crashes) == 0 && len(s.Drops) == 0 && s.Rate == 0)
}

// String renders the scenario in the canonical spec-grammar form
// ParseScenario accepts, e.g. "crash=17@100;drop=3-9@50;seed-faults=0.01".
// ParseScenario(s.String()) reproduces s exactly (the fuzz target pins the
// round trip).
func (s *Scenario) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if len(s.Crashes) > 0 {
		items := make([]string, len(s.Crashes))
		for i, c := range s.Crashes {
			items[i] = fmt.Sprintf("%d@%d", c.Node, c.Round)
		}
		parts = append(parts, "crash="+strings.Join(items, ","))
	}
	if len(s.Drops) > 0 {
		items := make([]string, len(s.Drops))
		for i, d := range s.Drops {
			items[i] = fmt.Sprintf("%d-%d@%d", d.U, d.V, d.Round)
		}
		parts = append(parts, "drop="+strings.Join(items, ","))
	}
	if s.Rate != 0 {
		parts = append(parts, "seed-faults="+strconv.FormatFloat(s.Rate, 'g', -1, 64))
	}
	if s.FaultSeed != 0 {
		parts = append(parts, "fault-seed="+strconv.FormatInt(s.FaultSeed, 10))
	}
	return strings.Join(parts, ";")
}

// ParseScenario parses the scenario spec grammar: clauses separated by ';'
// (or '+', so a spec can be embedded as one value inside the jobs grammar,
// whose own separator is ';'):
//
//	crash=<node>@<round>[,<node>@<round>...]   scheduled node crashes
//	drop=<u>-<v>@<round>[,...]                 scheduled edge drops
//	seed-faults=<rate>                         per-round random fault rate in [0,1]
//	fault-seed=<seed>                          fault PRNG seed (0/absent: derive
//	                                           from the network master seed)
//
// Example: "crash=17@100;drop=3-9@50;seed-faults=0.01". The empty string is
// the fault-free scenario. Node and edge references are validated against a
// concrete topology by SetScenario, not here — the grammar is
// graph-independent.
func ParseScenario(s string) (*Scenario, error) {
	sc := &Scenario{}
	for _, clause := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '+' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("congest: scenario clause %q is not key=value", clause)
		}
		switch key {
		case "crash":
			for _, item := range strings.Split(val, ",") {
				node, round, err := parseAtRound(item)
				if err != nil {
					return nil, fmt.Errorf("congest: scenario crash %q: %w", item, err)
				}
				sc.Crashes = append(sc.Crashes, NodeCrash{Node: int(node), Round: round})
			}
		case "drop":
			for _, item := range strings.Split(val, ",") {
				pair, at, ok := strings.Cut(item, "@")
				if !ok {
					return nil, fmt.Errorf("congest: scenario drop %q is not u-v@round", item)
				}
				us, vs, ok := strings.Cut(pair, "-")
				if !ok {
					return nil, fmt.Errorf("congest: scenario drop %q is not u-v@round", item)
				}
				u, err := parseIndex(us)
				if err != nil {
					return nil, fmt.Errorf("congest: scenario drop %q: %w", item, err)
				}
				v, err := parseIndex(vs)
				if err != nil {
					return nil, fmt.Errorf("congest: scenario drop %q: %w", item, err)
				}
				round, err := parseRound(at)
				if err != nil {
					return nil, fmt.Errorf("congest: scenario drop %q: %w", item, err)
				}
				sc.Drops = append(sc.Drops, EdgeDrop{U: int(u), V: int(v), Round: round})
			}
		case "seed-faults":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("congest: scenario seed-faults %q: %v", val, err)
			}
			if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("congest: scenario seed-faults %q: rate must be in [0,1]", val)
			}
			sc.Rate = rate
		case "fault-seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("congest: scenario fault-seed %q: %v", val, err)
			}
			sc.FaultSeed = seed
		default:
			return nil, fmt.Errorf("congest: unknown scenario key %q (have: crash, drop, seed-faults, fault-seed)", key)
		}
	}
	return sc, nil
}

// parseAtRound parses "<index>@<round>".
func parseAtRound(item string) (int64, int64, error) {
	idx, at, ok := strings.Cut(item, "@")
	if !ok {
		return 0, 0, fmt.Errorf("missing @round")
	}
	i, err := parseIndex(idx)
	if err != nil {
		return 0, 0, err
	}
	round, err := parseRound(at)
	if err != nil {
		return 0, 0, err
	}
	return i, round, nil
}

// parseIndex parses a non-negative node index. The int32 ceiling matches
// the engine's CSR index range, so a grammar-valid index always fits the
// arrays SetScenario sizes it against.
func parseIndex(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad index %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative index %d", v)
	}
	return v, nil
}

// parseRound parses a non-negative scenario round.
func parseRound(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad round %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative round %d", v)
	}
	return v, nil
}

// faultEvent is one compiled scheduled fault: a node crash (node >= 0) or
// an edge drop (node < 0, half naming one half-edge of the dead edge).
type faultEvent struct {
	round int64
	node  int32
	half  int32
}

// faultState is a scenario compiled against one network: the event
// schedule, the per-node and per-half-edge death flags the engine consults,
// and the scenario clock. It lives on the Network (faults accumulate across
// phases) and is rewound — never reallocated — by Reset, so a served run
// replays its scenario bit-exactly.
type faultState struct {
	events   []faultEvent
	rate     float64
	seed     int64 // fault PRNG origin; rewind re-seeds from it
	edgeHalf []int32

	// Mutable run state, reset by rewind.
	cursor   int
	srun     int64 // scenario round clock: executed rounds since construction/Reset
	rng      *rand.Rand
	crashed  []bool
	portDead []bool
}

// rewind returns the fault state to scenario round 0: schedule cursor at
// the start, fault PRNG back at its seed origin, every node alive and every
// edge intact. O(n + 2m) — the death flags are cleared, not reallocated.
func (f *faultState) rewind() {
	f.cursor = 0
	f.srun = 0
	f.rng = nil
	if f.rate > 0 {
		f.rng = rand.New(rand.NewSource(f.seed))
	}
	clear(f.crashed)
	clear(f.portDead)
}

// SetScenario attaches a fault scenario to the network, validated against
// its topology: crash nodes must exist, dropped edges must join adjacent
// nodes. A nil or zero scenario detaches (fault-free). On error nothing is
// attached — the network is left fault-free, never half-scripted.
//
// The scenario arms at scenario round 0, which is the next round any phase
// executes; Reset rewinds the attached scenario to that same origin instead
// of detaching it, so a reused network replays the identical fault sequence
// (the serving contract). Like Reset, calling SetScenario while a phase is
// running panics.
func (n *Network) SetScenario(s *Scenario) error {
	if n.running {
		panic("congest: SetScenario called while a phase is running")
	}
	n.fault = nil
	if s.IsZero() {
		return nil
	}
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("congest: scenario fault rate %v outside [0,1]", s.Rate)
	}
	nodes := n.N()
	f := &faultState{
		rate:     s.Rate,
		seed:     s.FaultSeed,
		crashed:  make([]bool, nodes),
		portDead: make([]bool, len(n.csr.PortTo)),
	}
	if f.seed == 0 {
		// Derive from the master seed so (graph, seed, scenario) fully
		// determines the fault stream; the xor constant keeps it off the
		// node-PRNG seed family.
		f.seed = n.seed ^ 0x5ce0a11a5
	}
	for _, c := range s.Crashes {
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("congest: scenario crashes node %d, network has %d nodes", c.Node, nodes)
		}
		if c.Round < 0 {
			return fmt.Errorf("congest: scenario crash of node %d at negative round %d", c.Node, c.Round)
		}
		f.events = append(f.events, faultEvent{round: c.Round, node: int32(c.Node)})
	}
	for _, d := range s.Drops {
		if d.U < 0 || d.U >= nodes || d.V < 0 || d.V >= nodes {
			return fmt.Errorf("congest: scenario drops edge %d-%d, network has %d nodes", d.U, d.V, nodes)
		}
		if d.Round < 0 {
			return fmt.Errorf("congest: scenario drop of edge %d-%d at negative round %d", d.U, d.V, d.Round)
		}
		p := n.g.PortTo(d.U, d.V)
		if p < 0 {
			return fmt.Errorf("congest: scenario drops %d-%d, which is not an edge", d.U, d.V)
		}
		f.events = append(f.events, faultEvent{round: d.Round, node: -1, half: n.csr.RowStart[d.U] + int32(p)})
	}
	// Stable by round: within a boundary, faults apply in declaration order
	// (crashes before drops) — the order is part of the deterministic
	// contract, though marking dead state is idempotent enough that only
	// pathological scenarios could observe it.
	sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].round < f.events[j].round })
	if f.rate > 0 {
		// Random drops pick a uniform edge index; map each edge to one of
		// its half-edges once (killEdge marks both directions regardless of
		// which half names the edge).
		f.edgeHalf = make([]int32, n.g.M())
		pe := n.csr.PortEdge
		for h := range pe {
			f.edgeHalf[pe[h]] = int32(h)
		}
	}
	f.rewind()
	n.fault = f
	return nil
}

// applyFaults advances the scenario clock by one round boundary: scheduled
// events due at the current scenario round fire, then the seeded-random
// draws happen. Runs on the coordinator between rounds — before the round's
// step wave, after the previous round's flip — so destroying an in-flight
// delivery is a plain write to curStamp with no wave running.
func (st *runState) applyFaults() {
	f := st.fault
	if f == nil {
		return
	}
	for f.cursor < len(f.events) && f.events[f.cursor].round <= f.srun {
		ev := f.events[f.cursor]
		f.cursor++
		if ev.node >= 0 {
			st.crashNode(int(ev.node))
		} else {
			st.killEdge(ev.half)
		}
	}
	if f.rate > 0 {
		// Two draws per boundary, always consumed in the same order, so the
		// fault stream is a pure function of (seed, round) — independent of
		// which earlier draws landed on already-dead targets.
		if n := st.net.N(); n > 0 && f.rng.Float64() < f.rate {
			st.crashNode(f.rng.Intn(n))
		}
		if m := len(f.edgeHalf); m > 0 && f.rng.Float64() < f.rate {
			st.killEdge(f.edgeHalf[f.rng.Intn(m)])
		}
	}
	f.srun++
}

// crashNode marks v crashed and kills every incident edge, destroying
// deliveries in flight to and from v. Idempotent.
func (st *runState) crashNode(v int) {
	f := st.fault
	if f.crashed[v] {
		return
	}
	f.crashed[v] = true
	if len(st.wakes) > 0 {
		st.wakes.drop(int32(v))
	}
	rs := st.net.csr.RowStart
	for h := rs[v]; h < rs[v+1]; h++ {
		st.killEdge(h)
	}
}

// killEdge marks the edge of half-edge h dead in both directions and
// destroys any delivery in flight across it: zeroing the two slots' current
// stamps makes them stale to every occupancy test (the clock starts at
// clockBase >= 2, so 0 never matches a real round). A broadcast in flight
// across it is stored at its sender, not in the slot, and is dropped by
// ForRecv instead, which skips broadcast entries behind a dead half-edge.
// Idempotent.
func (st *runState) killEdge(h int32) {
	f := st.fault
	if f.portDead[h] {
		return
	}
	csr := &st.net.csr
	rh := csr.RowStart[csr.PortTo[h]] + csr.PortRev[h]
	f.portDead[h] = true
	f.portDead[rh] = true
	st.curStamp[st.net.destSlot[h]] = 0
	st.curStamp[st.net.destSlot[rh]] = 0
}
