package congest

import (
	"testing"

	"shortcutpa/internal/graph"
)

// TestMemFootprintAfterStorm pins the engine's resident layout after a
// broadcast storm read through ForRecv: the delivery core is 16 B per slot
// (2 x 4 B stamp + 2 x 4 B send-log ref), the scheduling state, for these 9
// nodes, four bitsets and two summaries of one 8-byte word each, and the
// broadcast buffers 76 B per node (2 x 32 B Message + 3 x 4 B stamp) —
// receiving never allocates a view buffer of any kind. Broadcasts leave the
// send logs empty; two rounds that Send on every port then grow both logs
// to exactly one 32 B entry per slot. The static geometry is destSlot and
// slotPort (8 B per slot) and the identifier layer is the IDs alone (8 B
// per node).
func TestMemFootprintAfterStorm(t *testing.T) {
	g := graph.Torus(3, 3) // 9 nodes, degree 4, 36 slots
	net := NewNetwork(g, 2)
	if fp := net.MemFootprint(); fp.SlotBytes != 0 || fp.NodeBytes != 0 || fp.BroadcastBytes != 0 {
		t.Fatalf("engine buffers exist before the first phase: %+v", fp)
	}
	storm := NodeProcFunc(func(ctx *Ctx, v int) bool {
		ctx.ForRecv(func(Incoming) {})
		if ctx.Round() < 3 {
			ctx.Broadcast(Message{A: int64(v)})
			return true
		}
		return false
	})
	if _, err := net.RunNodes("storm", storm, 10); err != nil {
		t.Fatal(err)
	}
	fp := net.MemFootprint()
	if fp.Slots != 36 {
		t.Fatalf("Slots = %d, want 36", fp.Slots)
	}
	if got := fp.BytesPerSlot(); got != 16 {
		t.Fatalf("BytesPerSlot = %v, want 16", got)
	}
	if fp.LogBytes != 0 {
		t.Fatalf("LogBytes = %d after broadcasts only, want 0", fp.LogBytes)
	}
	if fp.NodeBytes != 48 {
		t.Fatalf("NodeBytes = %d, want 48 (6 bitsets x 1 word x 8 B)", fp.NodeBytes)
	}
	if fp.BroadcastBytes != 76*9 {
		t.Fatalf("BroadcastBytes = %d, want %d (2 x 32 B message + 3 x 4 B stamp per node)", fp.BroadcastBytes, 76*9)
	}
	unicast := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if ctx.Round() < 2 {
			for p := range ctx.Degree() {
				ctx.Send(p, Message{A: int64(v)})
			}
			return true
		}
		return false
	})
	if _, err := net.RunNodes("unicast", unicast, 10); err != nil {
		t.Fatal(err)
	}
	fp = net.MemFootprint()
	if fp.LogBytes != 2*32*36 {
		t.Fatalf("LogBytes = %d, want %d (2 logs x 36 entries x 32 B)", fp.LogBytes, 2*32*36)
	}
	if want := fp.SlotBytes + fp.LogBytes + fp.GeometryBytes + fp.NodeBytes + fp.BroadcastBytes + fp.IDBytes; fp.Total() != want {
		t.Fatalf("Total = %d, want the sum of the components, %d", fp.Total(), want)
	}
	if fp.GeometryBytes != 8*36 {
		t.Fatalf("GeometryBytes = %d, want %d (destSlot + slotPort, 2 x 4 B per slot)", fp.GeometryBytes, 8*36)
	}
	if fp.IDBytes != 8*9 {
		t.Fatalf("IDBytes = %d, want %d (one 8-byte ID per node)", fp.IDBytes, 8*9)
	}
}
