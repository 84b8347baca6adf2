package equivalence

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shortcutpa/internal/congest"
)

// TestOneHopAndFloodPhaseCostsPinned pins, phase by phase, the name, rounds
// and messages of the one-hop exchanges and relaxation floods that no
// layer's phase-cost test pins: Borůvka's group refresh (core/group-exchange)
// and leader adoption (core/adopt) in the mst fixture, and the SSSP relax
// round and Bellman-Ford flood in the sssp fixture. Each fixture runs at
// golden seed 42 at one and four engine workers, and on a network Reset
// after a full run.
func TestOneHopAndFloodPhaseCostsPinned(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	for _, c := range []struct {
		protocol string
		phases   []string
		want     []congest.Phase
	}{
		{
			protocol: "mst",
			phases:   []string{"core/group-exchange", "core/adopt"},
			want: []congest.Phase{
				phase("core/adopt", 3, 36),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 46),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 26),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 20),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 10),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 10),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 4),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 2),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 2),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 1, 0),
				phase("core/group-exchange", 2, 408),
				phase("core/adopt", 3, 2),
				phase("core/group-exchange", 2, 408),
			},
		},
		{
			protocol: "sssp",
			phases:   []string{"sssp/relax", "sssp/bellman-ford"},
			want: []congest.Phase{
				phase("sssp/relax", 2, 95),
				phase("sssp/relax", 2, 292),
				phase("sssp/relax", 2, 308),
				phase("sssp/relax", 2, 308),
				phase("sssp/relax", 2, 308),
				phase("sssp/relax", 2, 308),
				phase("sssp/relax", 2, 308),
				phase("sssp/bellman-ford", 10, 735),
			},
		},
	} {
		for _, leg := range []struct {
			label   string
			workers int
			reused  bool
		}{{"workers=1", 1, false}, {"workers=4", 4, false}, {"reused", 4, true}} {
			t.Run(c.protocol+"/"+leg.label, func(t *testing.T) {
				run := execute
				if leg.reused {
					run = executeReused
				}
				ex, err := run(byName[c.protocol], 42, leg.workers)
				if err != nil {
					t.Fatal(err)
				}
				var got []congest.Phase
				for _, ph := range ex.Phases {
					if slices.Contains(c.phases, ph.Name) {
						got = append(got, ph)
					}
				}
				if !slices.Equal(got, c.want) {
					var sb strings.Builder
					for _, ph := range got {
						fmt.Fprintf(&sb, "\t\t\t\tphase(%q, %d, %d),\n", ph.Name, ph.Cost.Rounds, ph.Cost.Messages)
					}
					t.Errorf("phase costs changed; got:\n%s", sb.String())
				}
			})
		}
	}
}

func phase(name string, rounds, messages int64) congest.Phase {
	return congest.Phase{Name: name, Cost: congest.Metrics{Rounds: rounds, Messages: messages}}
}
