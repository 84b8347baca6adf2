package congest

import "slices"

// Outbox is Lemma 4.2's per-port send queue (arXiv 1801.05127, §4): a node
// queues entries on its ports with Push, and each Flush releases at most
// one entry per port, so an edge carries one message per round however
// many wait on it. Entries are of the caller's type E; the caller's send
// hook turns the released entry into a message.
//
// A node's entries live in its own pool, threaded into one circular list
// per port, in arrival order, and a free list that later Pushes reuse; the
// ports with a non-empty list are kept in an ascending busy list. Push is
// O(1) plus the busy-list insert, and Flush walks the busy list (and,
// under a priority, each busy port's list). Pools are per node, so the
// parallel engine may step distinct nodes' Outbox entries concurrently.
//
// Flush does not ask Ctx.CanSend: the caller must send on a node's busy
// ports only through its Outbox in the step that flushes them, so each
// port is free when Flush reaches it. Send's double-send panic is the
// check.
type Outbox[E any] struct {
	rows  []int32 // the graph's CSR row starts: port q of v is half-edge rows[v]+q
	last  []int32 // per half-edge: the tail of the port's circular list in its node's pool (its next is the head); -1: empty
	nodes []outboxNode[E]
}

// outboxNode is one node's queues.
type outboxNode[E any] struct {
	pool []outboxEntry[E] // the node's entries, queued or free
	busy []int32          // ports with a non-empty list, ascending
	free int32            // head of pool's free list; -1: none
}

// outboxEntry is one pool entry, linked into a port's list or the free
// list.
type outboxEntry[E any] struct {
	e    E
	next int32 // next entry in the same list
}

// Reset empties every queue for a run on net. The arrays keep their
// capacity while net's size does not change, so an Outbox recycled across
// runs stops allocating once its pools have grown.
func (o *Outbox[E]) Reset(net *Network) {
	o.rows = net.csr.RowStart
	n := net.N()
	if len(o.nodes) != n {
		o.nodes = make([]outboxNode[E], n)
	}
	if h := int(o.rows[n]); len(o.last) != h {
		o.last = make([]int32, h)
	}
	for v := range o.nodes {
		p := &o.nodes[v]
		p.pool, p.busy, p.free = p.pool[:0], p.busy[:0], -1
	}
	for h := range o.last {
		o.last[h] = -1
	}
}

// Push queues e at the tail of node v's list for port.
func (o *Outbox[E]) Push(v, port int, e E) {
	p := &o.nodes[v]
	h := int(o.rows[v]) + port
	k := p.free
	if k >= 0 {
		p.free = p.pool[k].next
	} else {
		k = int32(len(p.pool))
		p.pool = append(p.pool, outboxEntry[E]{})
	}
	p.pool[k] = outboxEntry[E]{e: e, next: k}
	if l := o.last[h]; l < 0 {
		b, _ := slices.BinarySearch(p.busy, int32(port))
		p.busy = slices.Insert(p.busy, b, int32(port))
	} else {
		p.pool[k].next = p.pool[l].next
		p.pool[l].next = k
	}
	o.last[h] = k
}

// Flush releases at most one entry per busy port of node v, in ascending
// port order, and hands each to send with its port: the oldest when less
// is nil (FIFO), otherwise the first minimum under less in arrival order.
// send must not Push. Flush reports whether any of v's queues still holds
// an entry.
func (o *Outbox[E]) Flush(v int, less func(a, b *E) bool, send func(port int, e E)) bool {
	p := &o.nodes[v]
	base := int(o.rows[v])
	keep := p.busy[:0]
	for _, port := range p.busy {
		h := base + int(port)
		l := o.last[h]
		best, prev := p.pool[l].next, l
		if less != nil {
			for k, kPrev := p.pool[best].next, best; kPrev != l; k, kPrev = p.pool[k].next, k {
				if less(&p.pool[k].e, &p.pool[best].e) {
					best, prev = k, kPrev
				}
			}
		}
		ent := &p.pool[best]
		send(int(port), ent.e)
		switch {
		case best == prev:
			o.last[h] = -1 // the port's only entry
		case best == l:
			p.pool[prev].next = ent.next
			o.last[h] = prev
		default:
			p.pool[prev].next = ent.next
		}
		ent.next = p.free
		p.free = best
		if o.last[h] >= 0 {
			keep = append(keep, port)
		}
	}
	p.busy = keep
	return len(keep) > 0
}
