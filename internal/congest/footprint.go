package congest

import "unsafe"

// MemFootprint is a byte-accurate breakdown of a network's resident engine
// memory, grouped by what the bytes buy. It exists so layout claims are
// measured, not estimated: the bench sweep records BytesPerSlot per graph
// family, and BENCH snapshots pin it against regressions. All numbers are
// computed from live slice lengths — the lazy dirty buffer contributes
// exactly 0 until it is allocated.
type MemFootprint struct {
	// Slots is the number of rank-indexed edge slots (2m half-edges).
	Slots int
	// SlotBytes is the flipping delivery core: both Message buffers plus
	// both int32 stamp buffers — the arrays every delivered message moves
	// through. 72 B per slot (2 x 32 B message + 2 x 4 B stamp).
	SlotBytes int64
	// GeometryBytes is the static slot geometry built at NewNetwork:
	// destSlot, portSlot, and slotPort (3 x 4 B per slot), plus the CSR
	// adjacency the network aliases is counted by its owner, not here.
	GeometryBytes int64
	// NodeBytes is the per-node engine state: the two wake-stamp buffers
	// and the active flags (9 B per node).
	NodeBytes int64
	// FrontierBytes is the sparse-execution frontier state: the four
	// double-buffered active/woken node lists (16 B per node). Per-node
	// scheduling state, not slot memory, so it is excluded from
	// BytesPerSlot like NodeBytes.
	FrontierBytes int64
	// DirtyBytes is the parallel engine's sender-side dirty buffer
	// (4 B/slot), lazily allocated by the first parallel phase — zero on a
	// network that has only ever run sequentially. Excluded from
	// BytesPerSlot: it is wake-scheduling scratch, not part of the
	// flipping delivery core the metric tracks.
	DirtyBytes int64
	// IDBytes is the identifier layer: node IDs plus the sorted mapless
	// NodeByID index (20 B per node).
	IDBytes int64
}

// Total sums every component.
func (f MemFootprint) Total() int64 {
	return f.SlotBytes + f.GeometryBytes + f.NodeBytes + f.FrontierBytes + f.DirtyBytes + f.IDBytes
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
// before the first phase the flipping buffers do not exist yet and SlotBytes
// is 0, so benchmarks should sample after warmup.
func (n *Network) MemFootprint() MemFootprint {
	const (
		msgSize  = int64(unsafe.Sizeof(Message{}))
		i32Size  = int64(unsafe.Sizeof(int32(0)))
		i64Size  = int64(unsafe.Sizeof(int64(0)))
		boolSize = int64(unsafe.Sizeof(false))
	)
	f := MemFootprint{
		Slots: len(n.csr.PortTo),
		GeometryBytes: i32Size *
			int64(len(n.destSlot)+len(n.portSlot)+len(n.slotPort)),
		IDBytes: i64Size*int64(len(n.ids)+len(n.idSorted)) +
			i32Size*int64(len(n.idNode)),
	}
	b := n.buf
	if b == nil {
		return f
	}
	f.SlotBytes = msgSize*int64(len(b.curMsg)+len(b.nextMsg)) +
		i32Size*int64(len(b.curStamp)+len(b.nextStamp))
	f.NodeBytes = i32Size*int64(len(b.wakeCur)+len(b.wakeNext)) +
		boolSize*int64(len(b.active))
	f.FrontierBytes = i32Size * int64(len(b.frontA)+len(b.frontB)+len(b.wokeA)+len(b.wokeB))
	if b.dirtyReady.Load() {
		f.DirtyBytes = i32Size * int64(len(b.dirty))
	}
	return f
}
