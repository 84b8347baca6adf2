package congest

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// recv_test.go covers the engine's receive primitive, ForRecv: agreement
// with an independent sender-side transcript, the by-value (no aliasing)
// retention guarantee under the poison detector, and the degenerate
// topologies the slot scan must survive.

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

// recvEntry is one delivery as a receiver observed it through ForRecv:
// the round, its position k among that round's deliveries, and the value.
type recvEntry struct {
	round int64
	k     int
	in    Incoming
}

// TestDeliveryMatchesSenderTranscript checks ForRecv against a reference
// built only from the senders' side: every Send and Broadcast logs (round,
// receiver, arrival port from csr.PortRev, message), and after the run
// each receiver's ForRecv sequence in round r must equal the round r-1 log
// entries addressed to it, in ascending sender order, the k-th delivery of
// a round being the k-th such entry.
// Traffic is pseudo-random per port (Send) with periodic Broadcasts,
// staggered by node so a round's deliveries interleave slot messages and
// broadcast entries in sender order. With parking set, nodes fall silent
// at staggered rounds and park, stepping again only when a delivery wakes
// them, so most bitset words thin out to a few scheduled nodes; without,
// every node talks every round. Runs on every gossip topology at workers 1
// and 4, in both activity patterns. The subtest label keeps its first
// name, sparse=, for the parking axis.
func TestDeliveryMatchesSenderTranscript(t *testing.T) {
	const rounds = 10
	for _, tc := range gossipTopologies() {
		for _, workers := range []int{1, 4} {
			for _, parking := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/sparse=%v", tc.name, workers, parking)
				t.Run(name, func(t *testing.T) {
					checkTranscript(t, tc.g, workers, parking, rounds)
				})
			}
		}
	}
}

func checkTranscript(t *testing.T, g *graph.Graph, workers int, parking bool, rounds int64) {
	net := NewNetworkWorkers(g, 11, workers)
	csr := g.CSR()
	n := g.N()
	// Every log is indexed by the node that writes it, so concurrent
	// workers never share a slice.
	sent := make([][]sentEntry, n)
	got := make([][]recvEntry, n)
	logSend := func(r int64, u, p int, m Message) {
		h := csr.RowStart[u] + int32(p)
		sent[u] = append(sent[u], sentEntry{round: r, from: u, to: int(csr.PortTo[h]), port: int(csr.PortRev[h]), msg: m})
	}
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		k := 0
		ctx.ForRecv(func(in Incoming) {
			got[v] = append(got[v], recvEntry{round: r, k: k, in: in})
			k++
		})
		// Node v talks in rounds 0..v mod rounds (all rounds without
		// parking), then parks and only listens.
		last := int64(v) % rounds
		if !parking {
			last = rounds - 1
		}
		if r > last {
			return false
		}
		m := Message{Kind: 1, A: int64(v), B: r, C: ctx.Rand().Int63()}
		if (r+int64(v))%3 == 0 {
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
		k := 0
		for i, e := range logged {
			if i > 0 && logged[i-1].round != e.round {
				k = 0
			}
			o := got[v][i]
			if o.round != e.round+1 || o.in != (Incoming{Port: e.port, Msg: e.msg}) || o.k != k {
				t.Fatalf("node %d delivery %d: ForRecv round %d #%d %+v; sender %d logged round %d port %d %+v (#%d)",
					v, i, o.round, o.k, o.in, e.from, e.round, e.port, e.msg, k)
			}
			k++
		}
		delivered += len(logged)
	}
	if g.M() > 0 && delivered == 0 {
		t.Fatal("no message was delivered; the check is vacuous")
	}
}

// retiredLogEntry is the send-log entry that slot's retired ref (the one
// the last flip moved to nextRef) names: the message a read of the slot
// would get if it dodged the occupancy test.
func retiredLogEntry(st *runState, slot int32) Message {
	r := st.nextRef[slot]
	return st.logs[r&(1<<st.shardBits-1)].msgs[r>>st.shardBits]
}

// TestForRecvValueSurvivesRounds tests, in poison mode, the retention
// contract. ForRecv hands out Incoming VALUES, never views of engine
// storage, so retaining them across rounds is legal: with the poison
// detector armed — the retired send log overwritten with poisonKind at
// every flip — a retained ForRecv value and a copied slice keep reading
// what was delivered, later rounds still read fresh deliveries, and the
// retired log entry really does read poison.
func TestForRecvValueSurvivesRounds(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	g := graph.Path(2)
	net := NewNetwork(g, 1)
	var kept Incoming
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
			ctx.ForRecv(func(in Incoming) {
				kept = in
				byFor = append(byFor, in)
			})
			if kept.Msg.A != 42 || kept.Port != 0 {
				t.Errorf("round 1 ForRecv = %+v, want A=42 on port 0", kept)
			}
		case 2:
			checked = true
			if kept.Msg.A != 42 || len(byFor) != 1 || byFor[0].Msg.A != 42 {
				t.Errorf("retained ForRecv values changed: %+v / %+v, want A=42", kept, byFor)
			}
			// The round-1 delivery now sits in the retired send log, which
			// the flip poisoned. Node 1's only slot is the first of its row.
			slot := ctx.st.net.csr.RowStart[v]
			if m := retiredLogEntry(ctx.st, slot); m.Kind != poisonKind {
				t.Errorf("retired log entry of the slot reads %+v, want poison — the detector is off", m)
			}
			fresh := 0
			ctx.ForRecv(func(in Incoming) {
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
	if _, err := net.RunNodes("forrecv-retain", proc, 10); err != nil {
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
			net := NewNetworkWorkers(g, 1, workers)
			copied := make([][]Incoming, g.N())
			proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
				ctx.ForRecv(func(in Incoming) { copied[v] = append(copied[v], in) })
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

// TestForRecvDegenerateTopologies exercises the slot scan on the shapes
// where CSR ranges collapse: the empty graph, a single node, a single edge,
// and a disconnected graph with isolated nodes.
func TestForRecvDegenerateTopologies(t *testing.T) {
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
			ctx.ForRecv(func(Incoming) { t.Error("isolated node received a message") })
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
				ctx.ForRecv(func(in Incoming) {
					if in.Port != 0 {
						t.Errorf("delivery on port %d of a degree-1 node", in.Port)
					}
					got = in.Msg.A
				})
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
			ctx.ForRecv(func(in Incoming) {
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
