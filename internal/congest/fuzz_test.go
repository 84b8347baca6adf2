package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// FuzzParseScenario fuzzes the scenario spec grammar: no input may panic
// the parser, and every accepted input must survive a parse-print-parse
// round trip — String() is defined as the canonical form ParseScenario
// reproduces exactly.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"",
		"crash=17@100",
		"crash=17@100;drop=3-9@50;seed-faults=0.01",
		"crash=1@5+drop=0-1@2+fault-seed=3",
		"crash=17@100,4@2",
		"seed-faults=0.0005",
		"fault-seed=-9",
		"crash=;drop=--@",
		"seed-faults=+Inf",
		"crash=99999999999@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScenario(s)
		if err != nil {
			return
		}
		printed := sc.String()
		again, err := ParseScenario(printed)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", printed, s, err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip of %q changed the scenario: %+v -> %q -> %+v", s, sc, printed, again)
		}
		if printed != again.String() {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", s, printed, again.String())
		}
	})
}

// nodeView is the protocol-facing surface a generated Step uses; both the
// engine's Ctx and the reference model's modelCtx implement it.
type nodeView interface {
	Round() int64
	ID() int64
	Degree() int
	Rand() *rand.Rand
	ForRecv(f func(in Incoming))
	PortDown(p int) bool
	CanSend(p int) bool
	Send(p int, m Message)
	Broadcast(m Message)
	WakeAt(r int64)
}

// genProc is one generated phase. Its Step is a pure function of (seed, v,
// round, everything the node observes): the deliveries in order, a
// PortDown probe, an occasional PRNG draw, and a CanSend probe after
// sending. Before its horizon a Step may also ask for timed wake-ups, up
// to 24 rounds ahead (so past the horizon, and sometimes past the budget),
// now and then two at once. Each Step logs that function's value, so two
// simulators agree on the log only if they schedule, deliver, wake, and
// fault identically.
type genProc struct {
	seed     int64
	horizon  int64 // from this round on, no Step sends or stays active
	quiet    uint  // a Step sends with probability 2^-quiet
	budget   int64
	dupNode  int // sends twice on one port in dupRound (-1: never)
	dupRound int64
	dupKind  int // how: Send twice, Send after Broadcast, Broadcast after Send, Broadcast twice
}

// genObs is one logged Step.
type genObs struct {
	Round  int64
	H      uint64
	Active bool
}

func mix(h uint64, xs ...int64) uint64 {
	for _, x := range xs {
		h ^= uint64(x)
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (p *genProc) step(c nodeView, v int) (bool, genObs) {
	r := c.Round()
	h := mix(uint64(p.seed), int64(v), r, c.ID())
	k := 0
	c.ForRecv(func(in Incoming) {
		h = mix(h, int64(k), int64(in.Port), int64(in.Msg.Kind), in.Msg.A, in.Msg.B, in.Msg.C)
		k++
	})
	deg := c.Degree()
	if deg > 0 {
		q := int(h % uint64(deg))
		h = mix(h, int64(q), b2i(c.PortDown(q)))
	}
	if h%8 == 0 {
		h = mix(h, c.Rand().Int63())
	}
	active := false
	if r < p.horizon {
		msg := Message{Kind: int32(h % 251), A: int64(h >> 1), B: int64(v), C: r}
		if (h>>8)%(1<<p.quiet) == 0 {
			switch (h >> 16) % 3 {
			case 0:
				c.Broadcast(msg)
			case 1:
				for q := 0; q < deg; q++ {
					if (h>>(24+q%32))&1 == 1 {
						c.Send(q, msg)
					}
				}
			case 2:
				if deg > 0 {
					c.Send(int((h>>24)%uint64(deg)), msg)
				}
			}
		}
		active = (h>>20)%4 == 0
		if (h>>40)%8 == 0 {
			c.WakeAt(r + 1 + int64((h>>44)%24))
			if (h>>50)%4 == 0 {
				c.WakeAt(r + 1 + int64((h>>52)%4))
			}
		}
	}
	if v == p.dupNode && r == p.dupRound && deg > 0 {
		// A double send on a live port panics; on a dead port it is counted
		// and dropped, so the Step goes on to its CanSend probe. Either way
		// the model and the engine must agree, panic text included.
		last := deg - 1
		switch p.dupKind {
		case 0:
			if c.CanSend(0) {
				c.Send(0, Message{Kind: 1})
			}
			c.Send(0, Message{Kind: 2})
		case 1:
			c.Broadcast(Message{Kind: 1})
			c.Send(last, Message{Kind: 2})
		case 2:
			c.Send(last, Message{Kind: 1})
			c.Broadcast(Message{Kind: 2})
		default:
			c.Broadcast(Message{Kind: 1})
			c.Broadcast(Message{Kind: 2})
		}
	}
	if deg > 0 {
		h = mix(h, b2i(c.CanSend(int(h%uint64(deg)))))
	}
	return active, genObs{Round: r, H: h, Active: active}
}

// genPhases derives a run's phases from one seed: one to three phases,
// some with a budget below their horizon, a few with a double send of one
// of the four kinds.
func genPhases(seed int64, n int) []genProc {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]genProc, 1+rng.Intn(3))
	for i := range ps {
		p := &ps[i]
		p.seed = rng.Int63()
		p.horizon = 1 + rng.Int63n(48)
		p.quiet = uint(rng.Intn(4))
		p.budget = 1 + rng.Int63n(80)
		p.dupNode = -1
		if n > 0 && rng.Intn(8) == 0 {
			p.dupNode, p.dupRound, p.dupKind = rng.Intn(n), rng.Int63n(p.horizon), rng.Intn(4)
		}
	}
	return ps
}

// genGraph picks a small graph family member; sizes cross the 64-node
// word boundary of the engine's scheduling bitsets.
func genGraph(family, size uint8, seed int64) *graph.Graph {
	n := 1 + int(size)
	switch family % 9 {
	case 0:
		return graph.Path(n)
	case 1:
		return graph.Cycle(max(n, 3))
	case 2:
		return graph.Star(n)
	case 3:
		return graph.Torus(3+n%13, 3+n/13)
	case 4:
		return graph.Ladder(n)
	case 5:
		return graph.GridStar(1+n%9, 1+n/9)
	case 6:
		return graph.PowerLaw(n, 3, 2.5, rand.New(rand.NewSource(seed)))
	case 7:
		return graph.RandomTree(n, rand.New(rand.NewSource(seed)))
	default: // a few edges over mostly isolated nodes
		var edges []graph.Edge
		for v := 0; v+7 < n; v += 7 {
			edges = append(edges, graph.Edge{U: v, V: v + 7, W: 1})
		}
		return graph.MustNew(n, edges)
	}
}

// fitScenario parses spec and maps it onto g: crash nodes modulo n, each
// drop onto an existing edge, rounds modulo 256. Seeded-random faults are
// dropped (the reference model covers scheduled faults only).
func fitScenario(spec string, g *graph.Graph) *Scenario {
	sc, err := ParseScenario(spec)
	n := g.N()
	if err != nil || n == 0 {
		return nil
	}
	out := &Scenario{}
	for _, c := range sc.Crashes {
		out.Crashes = append(out.Crashes, NodeCrash{Node: c.Node % n, Round: c.Round % 256})
	}
	for _, d := range sc.Drops {
		u := d.U % n
		if deg := g.Degree(u); deg > 0 {
			out.Drops = append(out.Drops, EdgeDrop{U: u, V: g.Neighbor(u, d.V%deg), Round: d.Round % 256})
		}
	}
	return out
}

// runLog is one run's observable execution: per phase a head line (cost,
// error, panic) and every node's Step log, then a line of the network's
// totals. It is compared as data; lines renders it only to report a
// divergence, so a passing input costs no formatting of its Step logs.
type runLog struct {
	heads []string
	logs  [][][]genObs // per phase, per node
	total string
}

func (a *runLog) equal(b *runLog) bool {
	return slices.Equal(a.heads, b.heads) && a.total == b.total &&
		slices.EqualFunc(a.logs, b.logs, func(x, y [][]genObs) bool {
			return slices.EqualFunc(x, y, slices.Equal)
		})
}

// lines renders the log one line per phase head and per node.
func (a *runLog) lines() []string {
	var out []string
	for i, h := range a.heads {
		out = append(out, h)
		for v, l := range a.logs[i] {
			out = append(out, fmt.Sprintf("  v%d: %v", v, l))
		}
	}
	return append(out, a.total)
}

// transcript records one run's observable execution, phase by phase. A
// phase that panicked ends the run; its logs are cut before the panic
// round, which the parallel engine executes only partly.
func transcript(phases []genProc, run func(p *genProc, logs [][]genObs) (Metrics, error, string, int64), n int) *runLog {
	out := &runLog{}
	for i := range phases {
		logs := make([][]genObs, n)
		cost, err, pmsg, pround := run(&phases[i], logs)
		out.heads = append(out.heads, fmt.Sprintf("phase %d: cost=%+v err=%v panic=%q", i, cost, err, pmsg))
		if pmsg != "" {
			for v := range logs {
				logs[v] = slices.DeleteFunc(logs[v], func(o genObs) bool { return o.Round >= pround })
			}
		}
		out.logs = append(out.logs, logs)
		if pmsg != "" {
			break
		}
	}
	return out
}

// modelTranscript runs phases on a fresh reference model.
func modelTranscript(g *graph.Graph, seed int64, sc *Scenario, phases []genProc) (*runLog, int64) {
	m := newModel(g, seed, sc)
	var pround int64
	out := transcript(phases, func(p *genProc, logs [][]genObs) (Metrics, error, string, int64) {
		cost, err, pmsg, r := m.run(fmt.Sprint("gen/", p.seed), func(c *modelCtx, v int) bool {
			a, o := p.step(c, v)
			logs[v] = append(logs[v], o)
			return a
		}, p.budget)
		pround = r
		return cost, err, pmsg, r
	}, g.N())
	out.total = fmt.Sprintf("total=%+v phases=%+v stepped=%d sparse=%d faults=%d/%d",
		m.total, m.phases, m.stepped, m.sparse, len(m.crashed), len(m.dead))
	return out, pround
}

// engineTranscript runs phases on a real network. With reuse, the same
// phases run once first and the network is Reset before the recorded run.
// pround is the model's panic round, used to cut the engine's logs.
func engineTranscript(t *testing.T, g *graph.Graph, seed int64, sc *Scenario, phases []genProc, workers int, reuse bool, pround int64) *runLog {
	net := NewNetworkWorkers(g, seed, workers)
	if err := net.SetScenario(sc); err != nil {
		t.Fatalf("scenario %q: %v", sc, err)
	}
	run := func(p *genProc, logs [][]genObs) (cost Metrics, err error, pmsg string, r int64) {
		pmsg = catch(func() {
			cost, err = net.RunNodes(fmt.Sprint("gen/", p.seed), NodeProcFunc(func(ctx *Ctx, v int) bool {
				a, o := p.step(ctx, v)
				logs[v] = append(logs[v], o)
				return a
			}), p.budget)
		})
		return cost, err, pmsg, pround
	}
	if reuse {
		transcript(phases, run, g.N())
		net.Reset()
	}
	out := transcript(phases, run, g.N())
	stepped, sparse := net.ActivityStats()
	crashed, dead := net.FaultCounts()
	out.total = fmt.Sprintf("total=%+v phases=%+v stepped=%d sparse=%d faults=%d/%d",
		net.Total(), net.Phases(), stepped, sparse, crashed, dead)
	return out
}

// FuzzEngineVsModel drives the engine and the reference model (model_test.go)
// with the same generated protocols and requires identical transcripts:
// every Step's observations, every phase's cost and error, the double-send
// panic, the per-phase log, both ActivityStats counters, and the fault
// counts. Inputs
// pick the graph family and size, the protocol seed, a fault spec, the
// engine (workers 1 or 4), Reset reuse, and a forced stamp-renormalization
// threshold (0 keeps the default).
func FuzzEngineVsModel(f *testing.F) {
	for _, c := range []struct {
		family, size uint8
		seed         int64
		spec         string
		workers      uint8
		reuse        bool
		renorm       uint8
	}{
		{0, 199, 1, "", 1, false, 0},
		{3, 140, 2, "", 4, false, 0},
		// PRNG reuse after Reset: Steps draw from Ctx.Rand, so a network
		// that kept its per-node streams across Reset diverges.
		{3, 90, 3, "", 1, true, 0},
		{6, 200, 4, "", 4, true, 0},
		// Crash eviction: crashed nodes must leave the schedule, whether
		// active or woken when the crash lands, also across Reset.
		{3, 150, 5, "crash=17@2,70@5;drop=3-4@1", 1, false, 0},
		{5, 130, 6, "crash=0@1,65@3", 4, true, 0},
		{2, 100, 7, "crash=0@0", 4, false, 0},
		// Stamp renormalization every few rounds, across phase boundaries.
		{3, 120, 8, "", 1, false, 1},
		{4, 180, 9, "drop=5-6@4", 4, true, 7},
		// Double send (also on a Reset-reused network), budget failure,
		// and tiny or edgeless networks.
		{3, 150, 24, "", 4, true, 0},
		{3, 150, 41, "", 1, false, 0},
		{0, 0, 10, "", 4, false, 0},
		{8, 150, 11, "crash=7@3", 1, true, 0},
		// Timed wake-ups: a crash that removes the last pending wake-up
		// (which must then not keep the phase alive), budget failures with
		// wake-ups still pending followed by Reset reuse, and both on the
		// parallel engine, whose workers buffer their wake-ups.
		{0, 40, 38, "crash=5@6,20@9,30@12", 1, false, 0},
		{3, 150, 113, "crash=17@2,70@5;drop=3-4@1", 1, true, 0},
		{0, 40, 114, "crash=5@6,20@9,30@12", 4, true, 0},
		{5, 130, 113, "crash=0@1,65@3", 4, true, 0},
		// Broadcast mixed with Send in one round: Send after Broadcast,
		// Broadcast after Send, Broadcast twice (each panics on a live
		// port), and Send after Broadcast on a star whose hub crashed at
		// round 0, where every leaf port is dead and nothing panics.
		{3, 150, 19, "", 4, false, 0},
		{3, 150, 103, "", 1, false, 0},
		{3, 150, 14, "", 4, true, 0},
		{2, 100, 23, "crash=0@0", 1, false, 0},
	} {
		f.Add(c.family, c.size, c.seed, c.spec, c.workers, c.reuse, c.renorm)
	}
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, spec string, workers uint8, reuse bool, renorm uint8) {
		if renorm > 0 {
			old := stampRenormThreshold
			stampRenormThreshold = clockBase + int32(renorm%64)
			defer func() { stampRenormThreshold = old }()
		}
		g := genGraph(family, size, seed)
		sc := fitScenario(spec, g)
		phases := genPhases(seed, g.N())
		want, pround := modelTranscript(g, seed, sc, phases)
		w := 1 + 3*int(workers>>2&1) // 1 or 4
		got := engineTranscript(t, g, seed, sc, phases, w, reuse, pround)
		if got.equal(want) {
			return
		}
		gl, wl := got.lines(), want.lines()
		for i := range max(len(gl), len(wl)) {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("engine (workers %d, reuse %v) diverged from the model at line %d:\n got %s\nwant %s",
					w, reuse, i, at(gl, i), at(wl, i))
			}
		}
		t.Fatalf("engine (workers %d, reuse %v) diverged from the model", w, reuse)
	})
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
