package tree

import "shortcutpa/internal/congest"

// kindFlood is Flood's message kind.
const kindFlood int32 = 24

// Hop runs a one-hop exchange logged as phase: at round 0 every node v calls
// send(ctx, v), which sends or broadcasts whatever v announces, and every
// delivery calls recv(ctx, v, in), which may answer over in.Port. An answer
// arrives one round later and goes through recv too, so an ask-and-reply
// exchange takes two rounds and a plain announcement one.
func Hop(net *congest.Network, phase string, send func(ctx *congest.Ctx, v int),
	recv func(ctx *congest.Ctx, v int, in congest.Incoming)) error {
	_, err := net.RunNodes(phase, congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
		if ctx.Round() == 0 {
			send(ctx, v)
		}
		ctx.ForRecv(func(in congest.Incoming) { recv(ctx, v, in) })
		return false
	}), net.RoundCap())
	return err
}

// Flood runs a min-relaxation flood logged as phase, over val (entry v is
// node v's value, updated in place). At round 0 every node for which start
// is true announces its value (start nil: every node). A node takes each
// value a it receives over port q as relax(v, q, a) (relax nil: a itself)
// when that is below its own, and announces its value once at the end of
// every step that lowered it. A node announces over the ports whose entry
// in its ports(v) row is true, or with one Broadcast on every port when
// ports is nil. It ends when no value improves: O(D) rounds for a min-ID
// flood, the hop depth of the shortest-path tree for a Bellman-Ford
// relaxation.
func Flood(net *congest.Network, phase string, val []int64, start func(v int) bool,
	ports func(v int) []bool, relax func(v, port int, a int64) int64) error {
	_, err := net.RunNodes(phase, congest.NodeProcFunc(func(ctx *congest.Ctx, v int) bool {
		improved := ctx.Round() == 0 && (start == nil || start(v))
		// Two loops keep the elections' loop free of the relax test: ~2.5% of
		// tree/elect on a 128x128 torus (2 vCPUs).
		if relax == nil {
			ctx.ForRecv(func(in congest.Incoming) {
				if in.Msg.A < val[v] {
					val[v] = in.Msg.A
					improved = true
				}
			})
		} else {
			ctx.ForRecv(func(in congest.Incoming) {
				if a := relax(v, in.Port, in.Msg.A); a < val[v] {
					val[v] = a
					improved = true
				}
			})
		}
		if !improved {
			return false
		}
		m := congest.Message{Kind: kindFlood, A: val[v]}
		if ports == nil {
			ctx.Broadcast(m)
			return false
		}
		for q, ok := range ports(v) {
			if ok {
				ctx.Send(q, m)
			}
		}
		return false
	}), net.RoundCap())
	return err
}
