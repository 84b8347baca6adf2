package congest

import (
	"fmt"
	"math/rand"
	"sort"

	"shortcutpa/internal/graph"
)

// model_test.go is an independent reference model of the CONGEST semantics
// the engine implements, written to be plainly correct rather than fast: a
// dense scan over every node every round, and maps keyed by directed edge
// for the messages in flight, one for the round being read and one for the
// round being written. No stamps, no bitsets, no slot geometry, no worker
// pool. The fuzz target FuzzEngineVsModel drives the model and the
// real engine with the same generated protocols and requires identical
// transcripts, so the engine's scheduling machinery is checked against
// semantics it does not share code with.
//
// The contract, round r of a phase (phase-relative):
//
//   - faults due at the current lifetime scenario round fire first: a
//     crash kills the node and every incident edge, a drop kills one edge,
//     and messages in flight across a dead edge are destroyed;
//   - a live node steps iff r == 0, or its Step in round r-1 returned
//     active, or some neighbour sent to it over a live edge in round r-1
//     (it still steps if a fault then destroyed that delivery), or it asked
//     for round r with WakeAt;
//   - nodes step in ascending index order, and a node reads its deliveries
//     in ascending sender-index order;
//   - at most one message per edge direction per round: a second Send on a
//     live port panics, a Send on a dead port is counted and dropped;
//   - WakeAt(r') in round r panics unless r' > r; a crash forgets the
//     node's pending wake-ups;
//   - the phase ends after the first round in which no node returned
//     active, nothing was sent and no wake-up is pending, or fails once
//     the budget is spent.

// modelEdge is one directed edge: the key of an in-flight message.
type modelEdge struct {
	from, to int
}

// modelPort is one neighbour u of a node and the port that leads to it.
type modelPort struct {
	u, port int
}

// model is the reference simulator for one network's lifetime.
type model struct {
	g       *graph.Graph
	seed    int64
	ids     []int64
	nbrs    [][]modelPort // per node, its neighbours in ascending index order
	rngs    map[int]*rand.Rand
	crashed map[int]bool
	dead    map[[2]int]bool // undirected edge {min, max}
	faults  []modelFault    // scheduled, sorted by round (stable)
	srun    int64           // lifetime scenario round
	total   Metrics
	phases  []Phase
	stepped int64
	sparse  int64 // rounds past a phase's first stepping <= min(n, n/8+16) nodes
}

// modelFault is one scheduled crash (v >= 0) or drop (edge u-w).
type modelFault struct {
	round   int64
	v, u, w int
}

func newModel(g *graph.Graph, seed int64, sc *Scenario) *model {
	m := &model{g: g, seed: seed, ids: make([]int64, g.N()), nbrs: make([][]modelPort, g.N()),
		rngs: map[int]*rand.Rand{}, crashed: map[int]bool{}, dead: map[[2]int]bool{}}
	for v := range m.nbrs {
		for _, u := range g.SortedNeighbors(v) {
			m.nbrs[v] = append(m.nbrs[v], modelPort{u: u, port: g.PortTo(v, u)})
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	for v, k := range perm {
		m.ids[v] = int64(k)*2654435761 + 12345
	}
	if sc != nil {
		for _, c := range sc.Crashes {
			m.faults = append(m.faults, modelFault{round: c.Round, v: c.Node})
		}
		for _, d := range sc.Drops {
			m.faults = append(m.faults, modelFault{round: d.Round, v: -1, u: d.U, w: d.V})
		}
	}
	sort.SliceStable(m.faults, func(i, j int) bool { return m.faults[i].round < m.faults[j].round })
	return m
}

func undirected(u, w int) [2]int { return [2]int{min(u, w), max(u, w)} }

// modelPhase is the state of one running phase.
type modelPhase struct {
	m        *model
	round    int64
	received map[modelEdge]Message  // sent in the previous round: this round's deliveries
	sending  map[modelEdge]Message  // sent in this round
	due      map[int]bool           // nodes that must step this round
	dueNext  map[int]bool           // nodes that must step next round
	wakes    map[int64]map[int]bool // WakeAt requests: round -> nodes
	active   int64                  // Steps of this round that returned active
	sent     int64                  // Sends of this round, dead ports included
	cost     Metrics
}

// run executes one phase of step on the model and returns its cost, error,
// and — if a Step panicked — the panic value rendered as a string plus the
// round it happened in. A panicking phase returns no cost and is not
// recorded, as in the engine.
func (m *model) run(name string, step func(c *modelCtx, v int) bool, maxRounds int64) (Metrics, error, string, int64) {
	ph := &modelPhase{m: m, received: map[modelEdge]Message{}, sending: map[modelEdge]Message{},
		due: map[int]bool{}, dueNext: map[int]bool{}, wakes: map[int64]map[int]bool{}}
	for r := int64(0); r == 0 || ph.active > 0 || ph.sent > 0 || len(ph.wakes) > 0; r++ {
		if ph.cost.Rounds >= maxRounds {
			m.record(name, ph.cost)
			return ph.cost, &BudgetExceededError{Phase: name, Budget: maxRounds}, "", 0
		}
		ph.round, ph.active, ph.sent = r, 0, 0
		ph.received, ph.sending = ph.sending, ph.received
		clear(ph.sending)
		ph.due, ph.dueNext = ph.dueNext, ph.due
		clear(ph.dueNext)
		m.applyFaults(ph)
		var stepped int64
		for v := 0; v < m.g.N(); v++ {
			if m.crashed[v] || !(r == 0 || ph.due[v] || ph.wakes[r][v]) {
				continue
			}
			stepped++
			var active bool
			if msg := catch(func() { active = step(&modelCtx{ph: ph, v: v}, v) }); msg != "" {
				return Metrics{}, nil, msg, r
			}
			if active {
				ph.active++
				ph.dueNext[v] = true
			}
		}
		delete(ph.wakes, r)
		ph.cost.Rounds++
		ph.cost.Messages += ph.sent
		m.stepped += stepped
		if r > 0 && stepped <= int64(min(m.g.N(), m.g.N()/8+16)) {
			m.sparse++
		}
	}
	m.record(name, ph.cost)
	return ph.cost, nil, "", 0
}

func (m *model) record(name string, cost Metrics) {
	m.total = m.total.Add(cost)
	m.phases = append(m.phases, Phase{Name: name, Cost: cost})
}

// applyFaults fires every scheduled fault due at the current lifetime
// scenario round, then advances that clock.
func (m *model) applyFaults(ph *modelPhase) {
	for _, f := range m.faults {
		if f.round != m.srun {
			continue
		}
		if f.v < 0 {
			m.kill(ph, f.u, f.w)
			continue
		}
		m.crashed[f.v] = true
		for r, set := range ph.wakes {
			delete(set, f.v)
			if len(set) == 0 {
				delete(ph.wakes, r)
			}
		}
		for _, u := range m.g.SortedNeighbors(f.v) {
			m.kill(ph, f.v, u)
		}
	}
	m.srun++
}

// kill marks edge u-w dead and destroys what crosses it this boundary.
func (m *model) kill(ph *modelPhase, u, w int) {
	m.dead[undirected(u, w)] = true
	delete(ph.received, modelEdge{u, w})
	delete(ph.received, modelEdge{w, u})
}

// catch runs f and returns its panic value as a string ("" if none).
func catch(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// modelCtx is the model's counterpart of Ctx: the same protocol-facing
// methods, answered from the model's maps.
type modelCtx struct {
	ph *modelPhase
	v  int
}

func (c *modelCtx) Round() int64   { return c.ph.round }
func (c *modelCtx) ID() int64      { return c.ph.m.ids[c.v] }
func (c *modelCtx) Degree() int    { return c.ph.m.g.Degree(c.v) }
func (c *modelCtx) peer(p int) int { return c.ph.m.g.Neighbor(c.v, p) }

func (c *modelCtx) Rand() *rand.Rand {
	m := c.ph.m
	if m.rngs[c.v] == nil {
		m.rngs[c.v] = rand.New(rand.NewSource(m.seed ^ (int64(c.v+1) * 0x9E3779B9)))
	}
	return m.rngs[c.v]
}

func (c *modelCtx) PortDown(p int) bool { return c.ph.m.dead[undirected(c.v, c.peer(p))] }

func (c *modelCtx) CanSend(p int) bool {
	_, sent := c.ph.sending[modelEdge{c.v, c.peer(p)}]
	return !sent
}

func (c *modelCtx) ForRecv(f func(in Incoming)) {
	for _, np := range c.ph.m.nbrs[c.v] {
		if msg, ok := c.ph.received[modelEdge{np.u, c.v}]; ok {
			f(Incoming{Port: np.port, Msg: msg})
		}
	}
}

func (c *modelCtx) Send(p int, msg Message) {
	ph := c.ph
	to := c.peer(p)
	if !ph.m.dead[undirected(c.v, to)] {
		key := modelEdge{c.v, to}
		if _, dup := ph.sending[key]; dup {
			panic(fmt.Sprintf("congest: node %d sent twice on port %d in round %d", c.v, p, ph.round))
		}
		ph.sending[key] = msg
		ph.dueNext[to] = true
	}
	ph.sent++
}

func (c *modelCtx) WakeAt(r int64) {
	if r <= c.ph.round {
		panic(fmt.Sprintf("congest: node %d asked to wake at round %d in round %d", c.v, r, c.ph.round))
	}
	if c.ph.wakes[r] == nil {
		c.ph.wakes[r] = map[int]bool{}
	}
	c.ph.wakes[r][c.v] = true
}

func (c *modelCtx) Broadcast(msg Message) {
	for p := 0; p < c.Degree(); p++ {
		c.Send(p, msg)
	}
}
