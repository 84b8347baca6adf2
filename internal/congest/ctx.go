package congest

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Ctx is a node's window onto the network for one round of one phase. It
// exposes exactly the KT0 CONGEST-local information: the node's own ID,
// port count, per-node randomness, the messages delivered this round, and
// the ability to send one message per port.
type Ctx struct {
	st   *runState
	v    int
	sent *int64 // messages sent through this Ctx (engine-owned counter)
	// shared marks a parallel worker's Ctx: other workers set wokeNext bits
	// in the same words concurrently, so Send sets them atomically.
	shared bool
	// pend is a parallel worker's wake-up buffer (WakeAt); nil on the
	// sequential engine, which pushes straight into the heap.
	pend *[]wakeup
}

// ID returns the node's unique O(log n)-bit identifier.
func (c *Ctx) ID() int64 { return c.st.net.ids[c.v] }

// Round returns the current round number within the phase (0-based).
func (c *Ctx) Round() int64 { return c.st.round - c.st.base }

// Degree returns the node's port count.
func (c *Ctx) Degree() int {
	rs := c.st.net.csr.RowStart
	return int(rs[c.v+1] - rs[c.v])
}

// Rand returns the node's private PRNG (created on first use; the stream
// depends only on the master seed and the node index).
func (c *Ctx) Rand() *rand.Rand { return c.st.net.rng(c.v) }

// ForRecv invokes f for every message delivered this round, in ascending
// sender-index order (each neighbor sends at most one message per round, so
// that order is well defined — and it is the order the delivery slots are
// laid out in), reading the engine buffers in place.
//
// Nothing is compacted or copied into engine-owned storage: each slot's
// arrival port is read from the static slot geometry (slotPort), and the
// Incoming values f receives are stack copies it may retain freely. A slot
// whose stamp misses falls back to its sender's broadcast entry, found
// through the slot's port (the sender wrote its message once, not once per
// receiver — see Broadcast). Calling Send or Broadcast from f is allowed
// (delivery buffers and send buffers are distinct arrays).
func (c *Ctx) ForRecv(f func(in Incoming)) {
	st := c.st
	b := st.engineBuffers
	v := c.v
	if b.woke[v>>6]&(1<<(v&63)) == 0 {
		return
	}
	rs := st.net.csr.RowStart
	lo, hi := rs[v], rs[v+1]
	sentAt := st.snow - 1
	stamps := b.curStamp[lo:hi]
	msgs := b.curMsg[lo:hi]
	ports := st.net.slotPort[lo:hi]
	// The sender behind slot k is the neighbor on the slot's arrival port.
	// A broadcast crossing a dead edge is dropped by the receiver's own
	// half-edge flag: killEdge marks both halves, and crashNode kills every
	// incident edge, so this destroys exactly the in-flight messages a
	// fault destroys in the slots.
	portTo := st.net.csr.PortTo[lo:hi]
	var dead []bool
	if st.fault != nil {
		dead = st.fault.portDead[lo:hi]
	}
	for k := range stamps {
		p := ports[k]
		if stamps[k] == sentAt {
			f(Incoming{Port: int(p), Msg: msgs[k]})
		} else if u := portTo[p]; b.curBStamp[u] == sentAt && (dead == nil || !dead[p]) {
			f(Incoming{Port: int(p), Msg: b.curBMsg[u]})
		}
	}
}

// Send transmits one message over port p, to be delivered next round. The
// message is written straight into its receiver-side edge slot; slots are
// disjoint across all (sender, port) pairs, so no buffering or merge pass
// exists on any engine. Sending twice on the same port in one round — a
// Send on a port already sent on, or any Send after a Broadcast — violates
// the CONGEST model and panics: that is a protocol bug, not a runtime
// condition.
//
// Under a fault scenario, a Send on a dead port (see PortDown) is counted
// in Metrics.Messages and then dropped: the sender pays the model's message
// cost, the receiver never sees anything, and no slot is written — so the
// double-send panic does not apply to dead ports.
func (c *Ctx) Send(p int, m Message) {
	st := c.st
	csr := &st.net.csr
	lo, hi := csr.RowStart[c.v], csr.RowStart[c.v+1]
	h := lo + int32(p)
	if p < 0 || h >= hi {
		panic(fmt.Sprintf("congest: node %d has no port %d (degree %d)", c.v, p, hi-lo))
	}
	if f := st.fault; f != nil && f.portDead[h] {
		*c.sent++
		return
	}
	slot := st.net.destSlot[h]
	b := st.engineBuffers
	if b.nextStamp[slot] == st.snow || b.nextBStamp[c.v] == st.snow {
		panic(fmt.Sprintf("congest: node %d sent twice on port %d in round %d", c.v, p, st.round-st.base))
	}
	b.nextStamp[slot] = st.snow
	b.sendStamp[c.v] = st.snow
	// The slot stores only the 32-byte message: the arrival port is a
	// static property of the slot (Network.slotPort), derived by the read
	// side, so a delivered message moves 36 bytes (message + int32 stamp)
	// instead of the packed-Incoming layout's 48. No Port prefill either —
	// which at n = 10^6 was a 320 MB first-touch pass before any round ran.
	b.nextMsg[slot] = m
	c.wake(csr.PortTo[h])
	*c.sent++
}

// wake sets receiver to's bit in next round's woken set, and its word's
// bit in the summary when the word gains its first bit.
func (c *Ctx) wake(to int32) {
	b := c.st.engineBuffers
	if c.mark(&b.wokeNext[to>>6], 1<<(to&63)) {
		c.mark(&b.sumNext[to>>12], 1<<(to>>6&63))
	}
}

// mark sets bit in the scheduling word *w and reports whether it was
// clear. The sequential engine is the only writer and sets it in place. A
// parallel worker may share the word with other workers, so it sets it
// atomically, testing first since most deliveries land on a node already
// woken; two workers racing on one clear bit may both report it clear,
// which only makes a caller set a summary bit twice. (Reading OrUint64's
// returned old value instead faulted with a nil dereference when built
// with go1.24.0.)
func (c *Ctx) mark(w *uint64, bit uint64) bool {
	if !c.shared {
		old := *w
		*w = old | bit
		return old&bit == 0
	}
	if atomic.LoadUint64(w)&bit != 0 {
		return false
	}
	atomic.OrUint64(w, bit)
	return true
}

// CanSend reports whether port p is still free this round: neither sent on
// nor covered by a Broadcast. A dead port is always free (see Send).
func (c *Ctx) CanSend(p int) bool {
	st := c.st
	csr := &st.net.csr
	lo, hi := csr.RowStart[c.v], csr.RowStart[c.v+1]
	h := lo + int32(p)
	if p < 0 || h >= hi {
		panic(fmt.Sprintf("congest: node %d has no port %d (degree %d)", c.v, p, hi-lo))
	}
	if st.nextStamp[st.net.destSlot[h]] == st.snow {
		return false
	}
	return st.nextBStamp[c.v] != st.snow || (st.fault != nil && st.fault.portDead[h])
}

// PortDown reports whether port p's edge is dead under the network's fault
// scenario: the edge was dropped, or the neighbor behind it crashed. On a
// fault-free network every port is up. Asking for a port the node does not
// have panics, as Send does.
//
// PortDown is the only protocol-visible fault signal besides silence: a
// crashed node is never stepped, so from inside a Step the world consists
// of live ports that deliver and dead ports that don't.
func (c *Ctx) PortDown(p int) bool {
	st := c.st
	rs := st.net.csr.RowStart
	lo, hi := rs[c.v], rs[c.v+1]
	h := lo + int32(p)
	if p < 0 || h >= hi {
		panic(fmt.Sprintf("congest: node %d has no port %d (degree %d)", c.v, p, hi-lo))
	}
	f := st.fault
	return f != nil && f.portDead[h]
}

// Broadcast sends m on every port (one message per edge, as the model
// allows). Equivalent to calling Send on each port in ascending order, and
// charged the same deg messages, but stored once: the message and its stamp
// go into the sender's own node-indexed entry, which each receiver reads
// through the slot that sender would have written (ForRecv). The only
// per-port work left is setting the receivers' wake bits. Dead ports are
// counted-then-dropped exactly as Send drops them.
func (c *Ctx) Broadcast(m Message) {
	st := c.st
	csr := &st.net.csr
	v := c.v
	lo, hi := csr.RowStart[v], csr.RowStart[v+1]
	b := st.engineBuffers
	snow := st.snow
	if b.nextBStamp[v] == snow || b.sendStamp[v] == snow {
		// Slow path: the node already sent this round. Panic on the first
		// port Broadcast would send on twice, as the equivalent Send loop
		// would; dead ports never conflict (CanSend is true on them).
		for p := range int(hi - lo) {
			if !c.CanSend(p) {
				panic(fmt.Sprintf("congest: node %d sent twice on port %d in round %d", v, p, st.round-st.base))
			}
		}
	}
	b.nextBStamp[v] = snow
	b.nextBMsg[v] = m
	var dead []bool
	if st.fault != nil {
		dead = st.fault.portDead[lo:hi]
	}
	for i, to := range csr.PortTo[lo:hi] {
		if dead == nil || !dead[i] {
			c.wake(to)
		}
	}
	*c.sent += int64(hi - lo)
}
