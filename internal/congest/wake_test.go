package congest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

// clockProc is a protocol whose nodes act on the clock: node v broadcasts at
// round send(v), then waits until round done(v), and relays the first
// message it hears once. It runs in two forms that must be
// indistinguishable from outside: busy-waiting (Step returns active until
// done(v)) and sleeping (WakeAt(send(v)) at round 0, WakeAt(done(v)) at
// send(v)). Each form logs what a node observes and does, never the idle
// steps only the busy form takes.
type clockProc struct {
	sleep bool
	heard []bool
	log   [][]string
}

func (p *clockProc) send(v int) int64 { return 1 + int64(v*7%13) }
func (p *clockProc) done(v int) int64 { return p.send(v) + int64(v*5%17) }

func (p *clockProc) Step(ctx *Ctx, v int) bool {
	r := ctx.Round()
	ctx.ForRecv(func(in Incoming) {
		p.log[v] = append(p.log[v], fmt.Sprintf("r%d got %d from port %d", r, in.Msg.A, in.Port))
		if !p.heard[v] && ctx.Degree() > 0 {
			p.heard[v] = true
			ctx.Send((in.Port+1)%ctx.Degree(), Message{A: in.Msg.A})
		}
	})
	switch r {
	case 0:
		if p.sleep {
			ctx.WakeAt(p.send(v))
		}
	case p.send(v):
		p.log[v] = append(p.log[v], fmt.Sprintf("r%d broadcast", r))
		for q := 0; q < ctx.Degree(); q++ {
			if ctx.CanSend(q) {
				ctx.Send(q, Message{A: int64(v)})
			}
		}
		if p.sleep && p.done(v) > r {
			ctx.WakeAt(p.done(v))
		}
	}
	if r == p.done(v) {
		p.log[v] = append(p.log[v], fmt.Sprintf("r%d done", r))
	}
	return !p.sleep && r < p.done(v)
}

// TestWakeAtMatchesBusyWait runs clockProc busy-waiting and sleeping on the
// same networks, fault-free and under crash= and drop= scenarios whose
// faults land while nodes wait, at one and four workers, and requires
// identical logs, per-phase costs and errors: a pending wake-up keeps the
// phase alive exactly as long as the busy-waiter would, and a crash ends it
// for the crashed node alike. The sleeping form must step fewer nodes.
func TestWakeAtMatchesBusyWait(t *testing.T) {
	g := graph.Torus(6, 7)
	for _, spec := range []string{"", "crash=3@4,20@9,41@2", "drop=0-1@3,10-11@6", "crash=5@1;drop=7-8@5", "crash=2@12",
		// Nodes 37 and 20 wait longest (until rounds 28 and 26): crashing
		// both mid-wait must end the phase when the next waiter is done.
		"crash=37@15,20@14"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("spec=%q/workers=%d", spec, workers), func(t *testing.T) {
				sc, err := ParseScenario(spec)
				if err != nil {
					t.Fatal(err)
				}
				run := func(sleep bool) ([]Phase, string, [][]string, int64) {
					net := NewNetworkWorkers(g, 5, workers)
					if err := net.SetScenario(sc); err != nil {
						t.Fatal(err)
					}
					p := &clockProc{sleep: sleep, heard: make([]bool, g.N()), log: make([][]string, g.N())}
					_, err := net.RunNodes("clock", p, 1000)
					// A budget the busy form exceeds must fail the sleeping form alike.
					_, errShort := net.RunNodes("clock/short", &clockProc{sleep: sleep, heard: make([]bool, g.N()), log: make([][]string, g.N())}, 20)
					stepped, _ := net.ActivityStats()
					return net.Phases(), fmt.Sprint(err, errShort), p.log, stepped
				}
				busyPh, busyErr, busyLog, busySteps := run(false)
				sleepPh, sleepErr, sleepLog, sleepSteps := run(true)
				if !reflect.DeepEqual(busyPh, sleepPh) || busyErr != sleepErr {
					t.Errorf("phases differ:\n busy  %+v %s\n sleep %+v %s", busyPh, busyErr, sleepPh, sleepErr)
				}
				for v := range busyLog {
					if !reflect.DeepEqual(busyLog[v], sleepLog[v]) {
						t.Errorf("node %d observed differently:\n busy  %s\n sleep %s", v,
							strings.Join(busyLog[v], "; "), strings.Join(sleepLog[v], "; "))
					}
				}
				if sleepSteps >= busySteps {
					t.Errorf("sleeping stepped %d nodes, busy-waiting %d", sleepSteps, busySteps)
				}
			})
		}
	}
}

// TestWakeAtPastRoundPanics pins the protocol-bug panic: asking to wake in
// the current or an earlier round is rejected on both engines, with the
// message the reference model (model_test.go) panics with.
func TestWakeAtPastRoundPanics(t *testing.T) {
	g := graph.Path(130)
	for _, workers := range []int{1, 4} {
		for _, ask := range []int64{3, 2} {
			net := NewNetworkWorkers(g, 1, workers)
			msg := catch(func() {
				net.RunNodes("bad-wake", NodeProcFunc(func(ctx *Ctx, v int) bool {
					if v == 70 && ctx.Round() == 3 {
						ctx.WakeAt(ask)
					}
					return ctx.Round() < 3
				}), 10)
			})
			want := fmt.Sprintf("congest: node 70 asked to wake at round %d in round 3", ask)
			if msg != want {
				t.Errorf("workers %d, WakeAt(%d) in round 3: panic %q, want %q", workers, ask, msg, want)
			}
		}
	}
}
