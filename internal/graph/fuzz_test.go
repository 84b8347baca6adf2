package graph

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzLoadEdgeList fuzzes the edge-list loader behind `pagen -load`: no
// input may panic it, an accepted input yields one original ID per node,
// and re-listing the accepted graph's edges under those IDs (as
// `pagen -load … -edges` does) re-parses to the same graph, edge for edge.
func FuzzLoadEdgeList(f *testing.F) {
	for _, name := range []string{"testdata/snap_tiny.txt", "testdata/dimacs_tiny.gr"} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		"",
		"1 2\n2 3 7\n3 1\n",
		"p sp 3 2\ne 1 2 5\na 2 3\nc comment\n",
		"9223372036854775807 0 1\n",
		"4 4\n",
		"1 2 0\n",
		"-1 2\n",
		"1\t2\r\n2 1 3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, err := LoadEdgeList(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(ids) != g.N() {
			t.Fatalf("%d original IDs for %d nodes", len(ids), g.N())
		}
		var sb strings.Builder
		g.ForEdges(func(_ int, e Edge) bool {
			fmt.Fprintf(&sb, "%d %d %d\n", ids[e.U], ids[e.V], e.W)
			return true
		})
		again, againIDs, err := LoadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-listed graph does not re-parse: %v\n%s", err, sb.String())
		}
		if again.N() != g.N() || again.M() != g.M() {
			t.Fatalf("re-parse n=%d m=%d, want n=%d m=%d", again.N(), again.M(), g.N(), g.M())
		}
		for v, id := range ids {
			if againIDs[v] != id {
				t.Fatalf("re-parse ids[%d] = %d, want %d", v, againIDs[v], id)
			}
		}
		for i := 0; i < g.M(); i++ {
			if again.Edge(i) != g.Edge(i) {
				t.Fatalf("re-parse edge %d = %+v, want %+v", i, again.Edge(i), g.Edge(i))
			}
		}
	})
}
