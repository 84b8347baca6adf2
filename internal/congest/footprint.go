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
	// SlotBytes is the flipping delivery core: both int32 stamp buffers
	// and both uint32 send-log reference buffers. 16 B per slot (2 x 4 B
	// stamp + 2 x 4 B ref).
	SlotBytes int64
	// LogBytes is the capacity of the send logs, both sides of the flip, at
	// 32 B per entry: each log keeps the size of the busiest round it has
	// held, about one entry per unicast message of that round. At most 64 B
	// per slot, reached when two consecutive rounds each send on every
	// slot.
	LogBytes int64
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
	return f.SlotBytes + f.LogBytes + f.GeometryBytes + f.NodeBytes + f.BroadcastBytes + f.IDBytes
}

// BytesPerSlot is the resident slot-array bytes per edge slot: the flipping
// delivery core divided by the slot count, 16 once the buffers exist. The
// send logs are not in it: their size follows the messages sent, not the
// slot count (LogBytes).
func (f MemFootprint) BytesPerSlot() float64 {
	if f.Slots == 0 {
		return 0
	}
	return float64(f.SlotBytes) / float64(f.Slots)
}

// MemFootprint reports the network's current engine memory breakdown. Cheap
// (a handful of len reads); callable at any point in the network's life —
// before the first phase the flipping buffers do not exist yet and SlotBytes,
// LogBytes, NodeBytes and BroadcastBytes are 0, so benchmarks should sample
// after warmup.
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
	f.SlotBytes = i32Size * int64(len(b.curStamp)+len(b.nextStamp)+len(b.curRef)+len(b.nextRef))
	for i := range b.logs {
		f.LogBytes += msgSize * int64(cap(b.logs[i].msgs)+cap(b.curLog[i]))
	}
	f.NodeBytes = i64Size * int64(len(b.act)+len(b.actNext)+len(b.woke)+len(b.wokeNext)+len(b.sum)+len(b.sumNext))
	f.BroadcastBytes = msgSize*int64(len(b.curBMsg)+len(b.nextBMsg)) +
		i32Size*int64(len(b.curBStamp)+len(b.nextBStamp)+len(b.sendStamp))
	return f
}
