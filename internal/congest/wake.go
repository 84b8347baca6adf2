package congest

import "fmt"

// wake.go holds the engine's timed wake-ups. A node whose next action is
// fixed by the round number — a scheduled send, a deadline, the end of a
// wait whose length every node knows — asks to be stepped at that round
// with Ctx.WakeAt instead of returning active every round until then. The
// model allows it: CONGEST nodes share a synchronous clock, so sleeping
// until a known round changes nothing a node or its neighbours observe.
// What it changes is the engine's work: a waiting node is no longer
// stepped on the rounds between.
//
// Pending wake-ups are a binary min-heap of (absolute round, node) in the
// network-lifetime engine buffers, so its capacity is recycled across
// phases like the bitsets'. At each round flip the entries due next round
// set their nodes' act bits, exactly as a Step that returned active would
// have. Entry order within one round does not matter: the drain steps the
// set bits in ascending node order either way.

// wakeup is one pending timed wake-up.
type wakeup struct {
	round int64 // absolute (network clock) round the node steps in
	v     int32
}

// wakeHeap is a min-heap of wake-ups by round, hand-rolled over a slice:
// container/heap would box every entry into an interface and allocate.
type wakeHeap []wakeup

func (h *wakeHeap) push(w wakeup) {
	a := append(*h, w)
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].round <= a[i].round {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

// pop removes and returns the earliest wake-up; h must be non-empty.
func (h *wakeHeap) pop() wakeup {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	a.down(0)
	*h = a
	return top
}

// down restores the heap order below index i.
func (h wakeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].round < h[c].round {
			c++
		}
		if h[i].round <= h[c].round {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// drop removes every entry for node v: a crashed node never steps again,
// so its pending wake-ups must not keep the phase alive. O(len(h)), paid
// only on a crash that finds the heap non-empty.
func (h *wakeHeap) drop(v int32) {
	a := *h
	keep := a[:0]
	for _, w := range a {
		if w.v != v {
			keep = append(keep, w)
		}
	}
	if len(keep) == len(a) {
		return
	}
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i)
	}
	*h = keep
}

// WakeAt schedules the node to step at phase round r even if no message
// arrives for it then: the timed counterpart of returning active, for a
// node whose next action waits on the clock rather than on a neighbour.
// The node still steps earlier if a message wakes it or its Step returns
// active, and a wake-up for a round in which it steps anyway adds no
// step. Several wake-ups may be pending at once. Pending wake-ups keep
// the phase from quiescing, just as an active node does, and they die with
// the phase and with a crash of the node.
//
// r must lie in the future: WakeAt(r) with r <= Round() is a protocol bug
// and panics, as sending twice on one port does.
func (c *Ctx) WakeAt(r int64) {
	st := c.st
	if r <= c.Round() {
		panic(fmt.Sprintf("congest: node %d asked to wake at round %d in round %d", c.v, r, c.Round()))
	}
	w := wakeup{round: st.base + r, v: int32(c.v)}
	if c.pend != nil {
		// A parallel worker: the coordinator moves these into the heap
		// after the wave's barrier (flushShardWakes).
		*c.pend = append(*c.pend, w)
		return
	}
	st.wakes.push(w)
}

// wakeDue sets the act bit (and its summary bit) of every node whose
// wake-up falls in round st.round, the round about to run, and returns how
// many nodes it newly activated. Called at the round flip, after the
// swap, so the bits land in the set the next drain reads.
func (st *runState) wakeDue() (woken int64) {
	b := st.engineBuffers
	for len(b.wakes) > 0 && b.wakes[0].round == st.round {
		v := b.wakes.pop().v
		i, bit := v>>6, uint64(1)<<(v&63)
		if b.act[i]&bit == 0 {
			b.act[i] |= bit
			b.sum[i>>6] |= 1 << (i & 63)
			woken++
		}
	}
	return woken
}

// flushShardWakes moves the parallel workers' wake-up buffers into the
// heap. Runs on the coordinator after the step wave's barrier, so the
// workers never touch the heap and need no lock.
func (st *runState) flushShardWakes() {
	b := st.engineBuffers
	for i := range b.shardWakes[:st.workers] {
		for _, w := range b.shardWakes[i] {
			b.wakes.push(w)
		}
		b.shardWakes[i] = b.shardWakes[i][:0]
	}
}
