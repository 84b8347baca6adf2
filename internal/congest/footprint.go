package congest

import "unsafe"

// MemFootprint is a byte-accurate breakdown of a network's resident engine
// memory, grouped by what the bytes buy. It exists so layout claims are
// measured, not estimated: the bench sweep records BytesPerSlot per graph
// family, and BENCH snapshots pin it against regressions. All numbers are
// computed from live slice lengths.
type MemFootprint struct {
	// Slots is the number of rank-indexed edge slots (2m half-edges).
	Slots int
	// SlotBytes is the flipping delivery core: both Message buffers plus
	// both int32 stamp buffers — the arrays every delivered message moves
	// through. 72 B per slot (2 x 32 B message + 2 x 4 B stamp).
	SlotBytes int64
	// GeometryBytes is the static slot geometry built at NewNetwork:
	// destSlot and slotPort (2 x 4 B per slot). The CSR adjacency the
	// network aliases is counted by its owner, not here.
	GeometryBytes int64
	// NodeBytes is the per-node scheduling state: the four bitsets
	// (active and woken, double-buffered) of ceil(n/64) 8-byte words each
	// plus their two summaries of ceil(n/4096) words, about half a byte
	// per node.
	NodeBytes int64
	// BroadcastBytes is the node-indexed broadcast buffers: both Message
	// entries, both their int32 stamps and the last-Send stamp — 76 B per
	// node (2 x 32 B message + 3 x 4 B stamp).
	BroadcastBytes int64
	// IDBytes is the identifier layer: the node IDs (8 B per node).
	IDBytes int64
}

// Total sums every component.
func (f MemFootprint) Total() int64 {
	return f.SlotBytes + f.GeometryBytes + f.NodeBytes + f.BroadcastBytes + f.IDBytes
}

// BytesPerSlot is the resident slot-array bytes per edge slot: the flipping
// delivery core divided by the slot count, 72 once the buffers exist.
func (f MemFootprint) BytesPerSlot() float64 {
	if f.Slots == 0 {
		return 0
	}
	return float64(f.SlotBytes) / float64(f.Slots)
}

// MemFootprint reports the network's current engine memory breakdown. Cheap
// (a handful of len reads); callable at any point in the network's life —
// before the first phase the flipping buffers do not exist yet and SlotBytes,
// NodeBytes and BroadcastBytes are 0, so benchmarks should sample after
// warmup.
func (n *Network) MemFootprint() MemFootprint {
	const (
		msgSize = int64(unsafe.Sizeof(Message{}))
		i32Size = int64(unsafe.Sizeof(int32(0)))
		i64Size = int64(unsafe.Sizeof(int64(0)))
	)
	f := MemFootprint{
		Slots:         len(n.csr.PortTo),
		GeometryBytes: i32Size * int64(len(n.destSlot)+len(n.slotPort)),
		IDBytes:       i64Size * int64(len(n.ids)),
	}
	b := n.buf
	if b == nil {
		return f
	}
	f.SlotBytes = msgSize*int64(len(b.curMsg)+len(b.nextMsg)) +
		i32Size*int64(len(b.curStamp)+len(b.nextStamp))
	f.NodeBytes = i64Size * int64(len(b.act)+len(b.actNext)+len(b.woke)+len(b.wokeNext)+len(b.sum)+len(b.sumNext))
	f.BroadcastBytes = msgSize*int64(len(b.curBMsg)+len(b.nextBMsg)) +
		i32Size*int64(len(b.curBStamp)+len(b.nextBStamp)+len(b.sendStamp))
	return f
}
