package congest

import (
	"testing"

	"shortcutpa/internal/graph"
)

// TestMemFootprintAfterStorm pins the engine's resident layout after a
// broadcast storm read through ForRecv: the delivery core is 72 B per slot
// (2 x 32 B Message + 2 x 4 B stamp) and the per-node state 9 B (two int32
// wake stamps and the active flag) — receiving never allocates a view
// buffer of any kind.
func TestMemFootprintAfterStorm(t *testing.T) {
	g := graph.Torus(3, 3) // 9 nodes, degree 4, 36 slots
	net := NewNetwork(g, 2)
	if fp := net.MemFootprint(); fp.SlotBytes != 0 || fp.NodeBytes != 0 {
		t.Fatalf("engine buffers exist before the first phase: %+v", fp)
	}
	storm := NodeProcFunc(func(ctx *Ctx, v int) bool {
		ctx.ForRecv(func(int, Incoming) {})
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
	if got := fp.BytesPerSlot(); got != 72 {
		t.Fatalf("BytesPerSlot = %v, want 72", got)
	}
	if want := int64(9 * g.N()); fp.NodeBytes != want {
		t.Fatalf("NodeBytes = %d, want %d (9 B per node)", fp.NodeBytes, want)
	}
}
