package congest

import (
	"fmt"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// outboxItem is a test entry: a priority key and an arrival label.
type outboxItem struct {
	key   int
	label string
}

// flushAll flushes node v once and returns what it released, as
// "port:label" strings in release order, and whether work remains.
func flushAll(o *Outbox[outboxItem], v int, less func(a, b *outboxItem) bool) ([]string, bool) {
	var got []string
	more := o.Flush(v, less, func(port int, e outboxItem) {
		got = append(got, fmt.Sprintf("%d:%s", port, e.label))
	})
	return got, more
}

// TestOutboxFIFOAndPortOrder pins the FIFO discipline: entries leave a port
// in arrival order, each Flush releases at most one entry per port, and it
// visits the busy ports in ascending order whatever order they filled in.
// Queues of different nodes are independent.
func TestOutboxFIFOAndPortOrder(t *testing.T) {
	net := NewNetwork(graph.Torus(3, 3), 1) // every node has 4 ports
	var o Outbox[outboxItem]
	o.Reset(net)
	for _, p := range []struct {
		port  int
		label string
	}{{1, "a"}, {3, "b"}, {1, "c"}, {0, "d"}, {3, "e"}, {1, "f"}} {
		o.Push(4, p.port, outboxItem{label: p.label})
	}
	o.Push(5, 2, outboxItem{label: "x"})
	for i, want := range [][]string{{"0:d", "1:a", "3:b"}, {"1:c", "3:e"}, {"1:f"}} {
		got, more := flushAll(&o, 4, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("flush %d released %v, want %v", i, got, want)
		}
		if wantMore := i < 2; more != wantMore {
			t.Fatalf("flush %d reported more=%v, want %v", i, more, wantMore)
		}
	}
	if got, more := flushAll(&o, 4, nil); len(got) != 0 || more {
		t.Fatalf("drained node released %v (more=%v)", got, more)
	}
	if got, more := flushAll(&o, 5, nil); !slices.Equal(got, []string{"2:x"}) || more {
		t.Fatalf("node 5 released %v (more=%v), want [2:x]", got, more)
	}
}

// TestOutboxLessPicksFirstMinimum pins the priority discipline: a port
// releases its minimum under less, and among equal keys the earliest
// arrival, including after entries around it have left.
func TestOutboxLessPicksFirstMinimum(t *testing.T) {
	net := NewNetwork(graph.Torus(3, 3), 1)
	var o Outbox[outboxItem]
	o.Reset(net)
	less := func(a, b *outboxItem) bool { return a.key < b.key }
	for _, e := range []outboxItem{{3, "a"}, {1, "b"}, {2, "c"}, {1, "d"}, {0, "e"}} {
		o.Push(0, 2, e)
	}
	var got []string
	for more := true; more; {
		var out []string
		out, more = flushAll(&o, 0, less)
		if len(out) != 1 {
			t.Fatalf("one port released %v in one flush", out)
		}
		got = append(got, out...)
		if len(got) == 2 {
			o.Push(0, 2, outboxItem{1, "f"}) // ties with d, arrives after it
		}
	}
	if want := []string{"2:e", "2:b", "2:d", "2:f", "2:c", "2:a"}; !slices.Equal(got, want) {
		t.Fatalf("released %v, want %v", got, want)
	}
}

// TestOutboxReusesEntries pins the pool's recycling: released entries go to
// the free list and later Pushes take them, within a run and after Reset,
// so a node's pool never grows past its peak of queued entries and a
// recycled Outbox keeps its backing arrays.
func TestOutboxReusesEntries(t *testing.T) {
	net := NewNetwork(graph.Torus(3, 3), 1)
	var o Outbox[outboxItem]
	var first *outboxEntry[outboxItem]
	for run := range 3 {
		o.Reset(net)
		for i := range 6 {
			o.Push(7, i%4, outboxItem{label: fmt.Sprint(i)})
		}
		flushAll(&o, 7, nil) // frees four entries, one per port
		for port := range 3 {
			o.Push(7, port, outboxItem{label: "again"})
		}
		for more := true; more; {
			_, more = flushAll(&o, 7, nil)
		}
		pool := o.nodes[7].pool
		if len(pool) != 6 || cap(pool) < 6 {
			t.Fatalf("run %d: pool len %d cap %d, want len 6 (the peak queue)", run, len(pool), cap(pool))
		}
		if run == 0 {
			first = &pool[0]
		} else if &pool[0] != first {
			t.Fatalf("run %d: the pool was reallocated after Reset", run)
		}
	}
}
