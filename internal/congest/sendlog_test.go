package congest

import (
	"fmt"
	"testing"
	"unsafe"

	"shortcutpa/internal/graph"
)

// TestSendLogWorstCaseAndReuse drives the send logs through their worst
// case on both engines, with the poison detector armed: every node Sends on
// every port for three consecutive rounds, so both sides of the flip fill
// every slot, then a sparse round where a few nodes send once. Every
// delivery must be the message its sender's transcript says it sent; no log
// may ever hold more entries than its bound (the slot count on the
// sequential engine, the half-edges of the worker's node block on the
// parallel one), and after the full rounds each log is exactly at it. A
// second run on the same network reuses the logs: it allocates nothing on
// the sequential engine and no more than a silent phase of as many rounds
// on the parallel one (its pool), and moves no log's backing array.
func TestSendLogWorstCaseAndReuse(t *testing.T) {
	debugPoisonRecv = true
	defer func() { debugPoisonRecv = false }()

	const fullRounds = 3
	g := graph.Torus(16, 16) // 256 nodes, 1,024 slots: four 64-node shards
	csr := g.CSR()
	sparse := func(v int) bool { return v%7 == 0 }
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			net := NewNetworkWorkers(g, 5, workers)
			got := make([]int, g.N())
			proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
				r := ctx.Round()
				ctx.ForRecv(func(in Incoming) {
					got[v]++
					u := g.Neighbor(v, in.Port)
					want := Message{Kind: 1, A: int64(u), B: r - 1, C: int64(csr.PortRev[csr.RowStart[v]+int32(in.Port)])}
					if r <= fullRounds {
						want.C += 100
					}
					if in.Msg != want {
						t.Errorf("round %d: node %d got %+v on port %d, node %d sent %+v", r, v, in.Msg, in.Port, u, want)
					}
				})
				switch {
				case r < fullRounds:
					for p := range ctx.Degree() {
						ctx.Send(p, Message{Kind: 1, A: int64(v), B: r, C: int64(p) + 100})
					}
				case r == fullRounds && sparse(v):
					ctx.Send(0, Message{Kind: 1, A: int64(v), B: r, C: 0})
				}
				return r <= fullRounds
			})
			run := func() {
				clear(got)
				if _, err := net.RunNodes("sendlog", proc, 20); err != nil {
					t.Fatal(err)
				}
			}
			run()
			want := make([]int, g.N())
			for u := range want {
				want[u] += fullRounds * g.Degree(u)
				if sparse(u) {
					want[g.Neighbor(u, 0)]++
				}
			}
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("node %d received %d messages, want %d", v, got[v], want[v])
				}
			}

			b := net.buf
			bounds := []int32{0, int32(g.N())}
			if workers > 1 {
				bounds = EdgeBalancedBounds(csr.RowStart, workers, 1)
				for w := 1; w < workers; w++ {
					bounds[w] &^= 63
				}
			}
			if len(b.logs) != len(bounds)-1 {
				t.Fatalf("%d send logs, want one per shard (%d)", len(b.logs), len(bounds)-1)
			}
			for i := range b.logs {
				bound := int(csr.RowStart[bounds[i+1]] - csr.RowStart[bounds[i]])
				// After three full rounds and one sparse round, both sides
				// of the flip have held a full round: exactly at the bound.
				if c, cc := cap(b.logs[i].msgs), cap(b.curLog[i]); c != bound || cc != bound {
					t.Fatalf("shard %d log capacities %d and %d, want both at the bound %d", i, c, cc, bound)
				}
			}
			if fp := net.MemFootprint(); fp.LogBytes != 2*32*int64(fp.Slots) {
				t.Fatalf("LogBytes = %d, want the worst case 64 B x %d slots", fp.LogBytes, fp.Slots)
			}

			// Each shard's two arrays, in address order: the flip swaps
			// them, so which side holds which depends on the round count.
			arrays := func() (ptrs [][2]*Message) {
				for i := range b.logs {
					p, q := &b.logs[i].msgs[:1][0], &b.curLog[i][:1][0]
					if uintptr(unsafe.Pointer(p)) > uintptr(unsafe.Pointer(q)) {
						p, q = q, p
					}
					ptrs = append(ptrs, [2]*Message{p, q})
				}
				return ptrs
			}
			before := arrays()
			allocs := testing.AllocsPerRun(20, run)
			var floor float64
			if workers > 1 {
				// The same rounds without a message: what the pool's set-up
				// and its per-round channel handoffs allocate.
				idle := NodeProcFunc(func(ctx *Ctx, _ int) bool { return ctx.Round() <= fullRounds })
				floor = testing.AllocsPerRun(20, func() {
					if _, err := net.RunNodes("idle", idle, 20); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs > floor {
				t.Fatalf("a second run allocated %v times per run, want at most a silent phase's %v", allocs, floor)
			}
			for i, p := range arrays() {
				if p != before[i] {
					t.Fatalf("shard %d's log arrays moved on the second run: the logs were not recycled", i)
				}
			}
		})
	}
}

// TestSendLogAfterPanickedPhase checks that a phase starts with empty send
// logs on both engines. A protocol panic ends its round before the flip,
// so the logs still hold that round's entries; a next phase that appended
// after them would run past the logs' bound as soon as it sent on every
// slot.
func TestSendLogAfterPanickedPhase(t *testing.T) {
	g := graph.Torus(16, 16)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			net := NewNetworkWorkers(g, 5, workers)
			sendAll := func(ctx *Ctx, v int) {
				for p := range ctx.Degree() {
					ctx.Send(p, Message{A: int64(v)})
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the panicking phase did not panic")
					}
				}()
				net.RunNodes("panics", NodeProcFunc(func(ctx *Ctx, v int) bool {
					sendAll(ctx, v)
					if v == g.N()-1 {
						panic("protocol bug")
					}
					return false
				}), 10)
			}()
			got := 0
			proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
				ctx.ForRecv(func(in Incoming) {
					if in.Msg.A != int64(g.Neighbor(v, in.Port)) {
						t.Errorf("node %d got %+v on port %d", v, in.Msg, in.Port)
					}
					if v == 0 {
						got++
					}
				})
				if ctx.Round() < 2 {
					sendAll(ctx, v)
					return true
				}
				return false
			})
			if _, err := net.RunNodes("after", proc, 10); err != nil {
				t.Fatal(err)
			}
			if want := 2 * g.Degree(0); got != want {
				t.Fatalf("node 0 received %d messages, want %d", got, want)
			}
		})
	}
}
