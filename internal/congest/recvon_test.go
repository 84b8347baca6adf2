package congest

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// recvon_test.go covers the two receive primitives (ForRecv, RecvOn):
// agreement with an independent sender-side transcript, the by-value (no
// aliasing) retention guarantee under the poison detector, and the
// degenerate topologies the slot lookup must survive.

// sentEntry is one message as its sender logged it: the round it was sent
// in, the receiving node, the port it arrives on at the receiver (read
// from the graph's CSR, not from the engine's slot geometry), and the
// message itself.
type sentEntry struct {
	round    int64
	from, to int
	port     int
	msg      Message
}

// recvEntry is one delivery as a receiver observed it through ForRecv.
type recvEntry struct {
	round int64
	rank  int
	in    Incoming
}

// onEntry is one RecvOn probe: what port p reported in a round.
type onEntry struct {
	round int64
	port  int
	in    Incoming
	ok    bool
}

// TestDeliveryMatchesSenderTranscript checks both receive primitives
// against a reference built only from the senders' side: every Send and
// Broadcast logs (round, receiver, arrival port from csr.PortRev,
// message), and after the run each receiver's ForRecv sequence in round r
// must equal the round r-1 log entries addressed to it, in ascending
// sender order, with rank the sender's position among the receiver's
// neighbours; RecvOn(p) must report exactly the logged entry on port p.
// Traffic is pseudo-random per port (Send) with periodic Broadcasts, and
// nodes fall silent at staggered rounds so sparse frontier rounds occur.
// Runs on every gossip topology at workers 1 and 4, with sparse rounds on
// and off.
func TestDeliveryMatchesSenderTranscript(t *testing.T) {
	const rounds = 10
	for _, tc := range gossipTopologies() {
		for _, workers := range []int{1, 4} {
			for _, sparse := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/sparse=%v", tc.name, workers, sparse)
				t.Run(name, func(t *testing.T) {
					checkTranscript(t, tc.g, workers, sparse, rounds)
				})
			}
		}
	}
}

func checkTranscript(t *testing.T, g *graph.Graph, workers int, sparse bool, rounds int64) {
	net := NewNetwork(g, 11)
	net.SetWorkers(workers)
	net.SetSparseRounds(sparse)
	csr := g.CSR()
	n := g.N()
	// Every log is indexed by the node that writes it, so concurrent
	// workers never share a slice.
	sent := make([][]sentEntry, n)
	got := make([][]recvEntry, n)
	probes := make([][]onEntry, n)
	logSend := func(r int64, u, p int, m Message) {
		h := csr.RowStart[u] + int32(p)
		sent[u] = append(sent[u], sentEntry{round: r, from: u, to: int(csr.PortTo[h]), port: int(csr.PortRev[h]), msg: m})
	}
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		ctx.ForRecv(func(rank int, in Incoming) {
			got[v] = append(got[v], recvEntry{round: r, rank: rank, in: in})
		})
		for p := 0; p < ctx.Degree(); p++ {
			in, ok := ctx.RecvOn(p)
			probes[v] = append(probes[v], onEntry{round: r, port: p, in: in, ok: ok})
		}
		// Node v talks in rounds 0..v mod rounds, then only listens.
		last := int64(v) % rounds
		if r > last {
			return false
		}
		m := Message{Kind: 1, A: int64(v), B: r, C: ctx.Rand().Int63()}
		if r%3 == 0 {
			ctx.Broadcast(m)
			for p := 0; p < ctx.Degree(); p++ {
				logSend(r, v, p, m)
			}
		} else {
			for p := 0; p < ctx.Degree(); p++ {
				if ctx.Rand().Intn(2) == 0 {
					ctx.Send(p, m)
					logSend(r, v, p, m)
				}
			}
		}
		return r < last
	})
	if _, err := net.RunNodes("transcript", proc, 4*rounds); err != nil {
		t.Fatal(err)
	}

	// want[v] is every message sent to v, ordered by delivery round and,
	// within a round, by sender: senders are visited in ascending order and
	// each logged its rounds in order, so a stable sort by round suffices.
	want := make([][]sentEntry, n)
	for u := 0; u < n; u++ {
		for _, e := range sent[u] {
			want[e.to] = append(want[e.to], e)
		}
	}
	delivered := 0
	for v := 0; v < n; v++ {
		logged := want[v]
		slices.SortStableFunc(logged, func(a, b sentEntry) int { return cmp.Compare(a.round, b.round) })
		if len(got[v]) != len(logged) {
			t.Fatalf("node %d: ForRecv yielded %d messages, senders logged %d", v, len(got[v]), len(logged))
		}
		for i, e := range logged {
			o := got[v][i]
			rank := 0
			for h := csr.RowStart[v]; h < csr.RowStart[v+1]; h++ {
				if int(csr.PortTo[h]) < e.from {
					rank++
				}
			}
			if o.round != e.round+1 || o.in != (Incoming{Port: e.port, Msg: e.msg}) || o.rank != rank {
				t.Fatalf("node %d delivery %d: ForRecv round %d rank %d %+v; sender %d logged round %d port %d %+v (rank %d)",
					v, i, o.round, o.rank, o.in, e.from, e.round, e.port, e.msg, rank)
			}
		}
		delivered += len(logged)
		for _, pr := range probes[v] {
			var exp *sentEntry
			for i, e := range logged {
				if e.round+1 == pr.round && e.port == pr.port {
					exp = &logged[i]
				}
			}
			if pr.ok != (exp != nil) {
				t.Fatalf("node %d round %d port %d: RecvOn ok=%v, senders logged %v", v, pr.round, pr.port, pr.ok, exp)
			}
			if pr.ok && pr.in != (Incoming{Port: exp.port, Msg: exp.msg}) {
				t.Fatalf("node %d round %d port %d: RecvOn %+v, logged %+v", v, pr.round, pr.port, pr.in, *exp)
			}
		}
	}
	if g.M() > 0 && delivered == 0 {
		t.Fatal("no message was delivered; the check is vacuous")
	}
}

// TestRecvOnValueSurvivesRounds tests, in poison mode, the retention
// contract. RecvOn and ForRecv hand out Incoming VALUES, never views of
// engine storage, so retaining them across rounds is legal: with the
// poison detector armed — the retired slot buffer overwritten with
// poisonKind at every flip — a retained RecvOn result and a ForRecv copy
// keep reading what was delivered, later rounds still read fresh
// deliveries, and the retired buffer really does read poison.
func TestRecvOnValueSurvivesRounds(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	g := graph.Path(2)
	net := NewNetwork(g, 1)
	var byOn Incoming
	var byFor []Incoming
	checked := false
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v == 0 {
			if ctx.Round() < 2 {
				ctx.Send(0, Message{A: 42 + ctx.Round()})
				return true
			}
			return false
		}
		switch ctx.Round() {
		case 1:
			var ok bool
			if byOn, ok = ctx.RecvOn(0); !ok || byOn.Msg.A != 42 {
				t.Errorf("round 1 RecvOn = %+v ok=%v, want A=42", byOn, ok)
			}
			ctx.ForRecv(func(_ int, in Incoming) { byFor = append(byFor, in) })
		case 2:
			checked = true
			if byOn.Msg.A != 42 || len(byFor) != 1 || byFor[0].Msg.A != 42 {
				t.Errorf("retained RecvOn/ForRecv values changed: %+v / %+v, want A=42", byOn, byFor)
			}
			// The round-1 deliveries now sit in the retired buffer, which
			// the flip poisoned.
			slot := ctx.st.net.portSlot[ctx.st.net.csr.RowStart[v]]
			if m := ctx.st.nextMsg[slot]; m.Kind != poisonKind {
				t.Errorf("retired slot reads %+v, want poison — the detector is off", m)
			}
			if in, ok := ctx.RecvOn(0); !ok || in.Msg.A != 43 {
				t.Errorf("round 2 RecvOn = %+v ok=%v, want A=43", in, ok)
			}
			fresh := 0
			ctx.ForRecv(func(_ int, in Incoming) {
				fresh++
				if in.Msg.A != 43 {
					t.Errorf("round 2 ForRecv = %+v, want A=43", in)
				}
			})
			if fresh != 1 {
				t.Errorf("round 2 ForRecv yielded %d messages, want 1", fresh)
			}
		}
		return ctx.Round() < 2
	})
	if _, err := net.RunNodes("recvon-retain", proc, 10); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("retention check never ran")
	}
}

// TestRecvCopySurvivesRounds checks that a copy taken through ForRecv is
// the caller's own: with the poison detector armed, every delivery copied
// out over a multi-round flood on a star still reads what was sent after
// the buffers it came from were retired and poisoned, in both engines.
func TestRecvCopySurvivesRounds(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	const rounds = 4
	g := graph.Star(5)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			net := NewNetwork(g, 1)
			net.SetWorkers(workers)
			copied := make([][]Incoming, g.N())
			proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
				ctx.ForRecv(func(_ int, in Incoming) { copied[v] = append(copied[v], in) })
				if ctx.Round() < rounds {
					ctx.Broadcast(Message{A: int64(100*v) + ctx.Round()})
					return true
				}
				return false
			})
			if _, err := net.RunNodes("copy", proc, 10); err != nil {
				t.Fatal(err)
			}
			for v := range g.N() {
				if want := rounds * g.Degree(v); len(copied[v]) != want {
					t.Fatalf("node %d copied %d messages, want %d", v, len(copied[v]), want)
				}
				for i, in := range copied[v] {
					if in.Msg.Kind == poisonKind {
						t.Fatalf("node %d copy %d reads poison", v, i)
					}
					u := g.Neighbor(v, in.Port)
					if in.Msg.A/100 != int64(u) || in.Msg.A%100 < 0 || in.Msg.A%100 >= rounds {
						t.Fatalf("node %d copy %d = %+v, not a message node %d sent", v, i, in, u)
					}
				}
			}
		})
	}
}

// TestRecvOnDegenerateTopologies exercises the slot lookup on the shapes
// where CSR ranges collapse: the empty graph, a single node, a single edge,
// and a disconnected graph with isolated nodes.
func TestRecvOnDegenerateTopologies(t *testing.T) {
	t.Run("n=0", func(t *testing.T) {
		g, err := graph.New(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(g, 1)
		if _, err := net.RunNodes("empty", nil, 4); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("n=1", func(t *testing.T) {
		g, err := graph.New(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(g, 1)
		ran := false
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			ran = true
			ctx.ForRecv(func(int, Incoming) { t.Error("isolated node received a message") })
			return false
		})
		if _, err := net.RunNodes("single", proc, 4); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("single node never stepped")
		}
	})
	t.Run("n=2", func(t *testing.T) {
		g := graph.Path(2)
		net := NewNetwork(g, 1)
		got := int64(-1)
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			if v == 0 && ctx.Round() == 0 {
				ctx.Send(0, Message{A: 9})
			}
			if v == 1 {
				if in, ok := ctx.RecvOn(0); ok {
					got = in.Msg.A
				}
			}
			return false
		})
		if _, err := net.RunNodes("pair", proc, 6); err != nil {
			t.Fatal(err)
		}
		if got != 9 {
			t.Fatalf("receiver got %d, want 9", got)
		}
	})
	t.Run("isolated-nodes", func(t *testing.T) {
		// Nodes 0-1 share the only edge; 2 and 3 are isolated.
		g, err := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}})
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(g, 5)
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			if ctx.Round() == 0 && ctx.Degree() > 0 {
				ctx.Broadcast(Message{A: int64(v)})
			}
			ctx.ForRecv(func(_ int, in Incoming) {
				if v > 1 {
					t.Errorf("isolated node %d received %+v", v, in)
				}
			})
			return false
		})
		if _, err := net.RunNodes("isolated", proc, 6); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecvOnBadPortPanics pins the contract that a port out of range is a
// protocol bug, matching Send.
func TestRecvOnBadPortPanics(t *testing.T) {
	g := graph.Path(2)
	net := NewNetwork(g, 1)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if v != 0 {
			return false
		}
		defer func() {
			if recover() == nil {
				t.Error("RecvOn(1) on a degree-1 node did not panic")
			}
		}()
		ctx.RecvOn(1)
		return false
	})
	if _, err := net.RunNodes("badport", proc, 4); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuse pins the arena contract: buffers come back cleared, and
// the same backing array is recycled across calls once grown.
func TestScratchReuse(t *testing.T) {
	g := graph.Path(3)
	net := NewNetwork(g, 1)
	s := net.Scratch()
	pb := s.PortBools()
	if len(pb) != 4 { // 2m = 4 half-edges on a 3-path
		t.Fatalf("PortBools length %d, want 4", len(pb))
	}
	pb[2] = true
	pb2 := s.PortBools()
	if &pb[0] != &pb2[0] {
		t.Error("PortBools did not recycle its buffer")
	}
	if pb2[2] {
		t.Error("PortBools returned a dirty buffer")
	}
	b := s.Bools(5)
	b[4] = true
	if b2 := s.Bools(2); len(b2) != 2 || b2[0] || b2[1] {
		t.Error("Bools shrink/clear broken")
	}
	i64 := s.Int64s(4)
	i64[1] = 8
	if x := s.Int64s(4); x[1] != 0 {
		t.Error("Int64s returned a dirty buffer")
	}
}
