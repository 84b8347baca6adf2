package core

import (
	"fmt"
	"slices"

	"shortcutpa/internal/congest"
)

// deterministic.go implements the deterministic pipeline of Section 6:
// Algorithm 6 (deterministic sub-part division, delegated to
// internal/subpart) and Algorithms 7+8 (deterministic shortcut
// construction over the heavy-path decomposition [39]).
//
// Algorithm 8's shape: representatives of active parts deposit their part
// ID at their heavy-path position; heavy paths are processed in waves by
// light level (paths with no incoming light edges first). Within a path,
// Algorithm 7's doubling schedule merges request sets upward: at iteration
// i, the node at index ≡ 2^i (mod 2^(i+1)) streams its accumulated set one
// part per round toward the node 2^i higher (clamped to the path top);
// every edge crossed is claimed by the streamed parts; a node whose set
// holds 2c parts "breaks" its path edge and discards the set (those parts'
// blocks root below the break — the congestion cap of Lemma 6.6). Path
// tops then stream their surviving sets across their (light) parent edges
// into the next wave's paths (Algorithm 8 line 12). All actions are
// scheduled by round number from globally known quantities (D, c = R, path
// indices, levels), as deterministic CONGEST algorithms are.
//
// The outer loop — verify coverage per part (Algorithm 2), freeze winners,
// retry the rest, double the budget on stagnation — is the driver shared
// with the randomized construction (construct.go).

// buildShortcutDeterministic is Algorithm 8 under the shared driver.
func (e *Engine) buildShortcutDeterministic(inf *Infra) error {
	if err := e.EnsureHeavy(); err != nil {
		return err
	}
	return e.runConstructionDriver(inf, e.heavyPathClaim)
}

const kPathClaim int32 = 160

// pathSchedule is the global round schedule for one Algorithm 8 sweep
// under threshold 2c: iteration windows within a wave, and the wave count.
type pathSchedule struct {
	iters      int
	iterStart  []int64
	lightStart int64 // within-wave round when path tops start light streams
	waveLength int64
	waves      int64
}

func newPathSchedule(e *Engine, c int64) *pathSchedule {
	s := &pathSchedule{}
	maxLen := int64(2)
	for v := 0; v < e.N; v++ {
		if e.Heavy.Length[v] > maxLen {
			maxLen = e.Heavy.Length[v]
		}
	}
	off := int64(0)
	for i := 0; int64(1)<<i < maxLen; i++ {
		s.iterStart = append(s.iterStart, off)
		off += (int64(1) << i) + 2*c + 4 // stream travel + stream length + slack
		s.iters = i + 1
	}
	s.lightStart = off
	s.waveLength = off + 2*c + 8
	s.waves = int64(e.Heavy.MaxLevel) + 1
	return s
}

// heavyPathClaim runs one full Algorithm 7+8 claim sweep for the active
// parts (the construction callback for the shared driver).
func (e *Engine) heavyPathClaim(inf *Infra, active []int64) error {
	sched := newPathSchedule(e, inf.Budget)
	n := e.N
	pp := &pathProc{
		e: e, inf: inf, sched: sched, active: active, threshold: 2 * inf.Budget,
		set:       make([][]int64, n),
		seen:      make([][]int64, n),
		broken:    make([]bool, n),
		stream:    make([][]int64, n),
		streamDst: make([]int64, n),
		lightQ:    make([][]int64, n),
		wake:      make([]int64, n),
	}
	budget := sched.waveLength*sched.waves + 4*inf.Budget + 256
	if _, err := e.Net.RunNodes("core/heavypath", pp, budget); err != nil {
		return fmt.Errorf("core: heavy-path construction: %w", err)
	}
	return nil
}

// pathProc is the shared Algorithm 7/8 state machine; per-node state is
// indexed by the stepped node.
type pathProc struct {
	e         *Engine
	inf       *Infra
	sched     *pathSchedule
	active    []int64 // ascending, as the construction driver keeps it
	threshold int64

	set       [][]int64 // accumulated request set (the paper's S(v))
	seen      [][]int64 // parts ever accumulated at each node, ascending
	broken    []bool    // my path-parent edge is broken
	stream    [][]int64 // elements in flight on the path-parent edge
	streamDst []int64   // their destination index on my path
	lightQ    [][]int64 // elements in flight on the light parent edge
	wake      []int64   // the clock duty last asked for with WakeAt (0: none yet)
}

// Step implements congest.NodeProc.
func (p *pathProc) Step(ctx *congest.Ctx, v int) bool {
	h := p.e.Heavy
	if ctx.Round() == 0 {
		if p.inf.Div.IsRep[v] && !p.inf.PB.Covered[v] {
			if _, ok := slices.BinarySearch(p.active, p.inf.In.LeaderID[v]); ok {
				p.accumulate(v, p.inf.In.LeaderID[v])
			}
		}
	}
	round := ctx.Round()
	wave := round / p.sched.waveLength
	inWave := round % p.sched.waveLength
	myLevel := int64(h.Level[v])
	if wave == myLevel {
		p.stepOwnWave(ctx, v, inWave)
	}

	ctx.ForRecv(func(m congest.Incoming) {
		if m.Msg.Kind != kPathClaim {
			return
		}
		i := m.Msg.A
		p.inf.SC.AddDownPort(v, i, m.Port) // the crossed edge carries part i
		dst := m.Msg.B
		if dst == 0 || dst <= h.Index[v] || p.broken[v] {
			// Destination reached (0 = light-edge delivery), or the path is
			// broken above: the set element stays here.
			p.accumulate(v, i)
			return
		}
		// Relay toward dst, claiming my parent path edge as it crosses.
		p.stream[v] = append(p.stream[v], i)
		p.streamDst[v] = dst
	})
	p.flushStreams(ctx, v)
	if p.wake[v] <= round {
		if next := p.nextDuty(v, round); next > round {
			p.wake[v] = next
			ctx.WakeAt(next)
		}
	}
	return len(p.stream[v]) > 0 || len(p.lightQ[v]) > 0
}

// nextDuty returns the first round after round at which node v acts on
// the schedule, or 0 if none is left: its send iteration within its wave
// (a path node at an index whose lowest set bit is i sends at iteration
// i), its light-edge window (a path top), and the round just past its
// wave. The last is no duty but the step a node active through its whole
// wave would take, and it is what keeps the phase running, idle rounds and
// all, until the last wave ends.
func (p *pathProc) nextDuty(v int, round int64) int64 {
	h, s := p.e.Heavy, p.sched
	start := int64(h.Level[v]) * s.waveLength
	if h.IsTop(v) {
		if at := start + s.lightStart; at > round {
			return at
		}
	} else {
		for i := 0; i < s.iters; i++ {
			step := int64(1) << i
			if at := start + s.iterStart[i]; h.Index[v]%(2*step) == step && at > round {
				return at
			}
		}
	}
	if end := start + s.waveLength; end > round {
		return end
	}
	return 0
}

// stepOwnWave fires the node's scheduled duties during its path's wave.
func (p *pathProc) stepOwnWave(ctx *congest.Ctx, v int, inWave int64) {
	h := p.e.Heavy
	idx := h.Index[v]
	if !h.IsTop(v) {
		for i := 0; i < p.sched.iters; i++ {
			if inWave != p.sched.iterStart[i] {
				continue
			}
			step := int64(1) << i
			if idx%(2*step) != step {
				continue
			}
			// My send iteration (Algorithm 7 line 4).
			if int64(len(p.set[v])) >= p.threshold {
				p.broken[v] = true // break (v, v+1); drop the set
				p.set[v] = nil
				continue
			}
			dst := min(idx+step, h.Length[v])
			p.stream[v] = append(p.stream[v], p.set[v]...)
			p.streamDst[v] = dst
			p.set[v] = nil
		}
		return
	}
	// Path top: at the light window, stream the surviving set across the
	// light parent edge (Algorithm 8 line 12). The root path's top has no
	// parent: its set simply rests (claims end at the root).
	if inWave == p.sched.lightStart && !p.broken[v] && p.e.Tree.ParentPort[v] >= 0 {
		p.lightQ[v] = append(p.lightQ[v], p.set[v]...)
		p.set[v] = nil
	}
}

func (p *pathProc) accumulate(v int, i int64) {
	k, ok := slices.BinarySearch(p.seen[v], i)
	if ok {
		return
	}
	p.seen[v] = slices.Insert(p.seen[v], k, i)
	p.set[v] = append(p.set[v], i)
}

// flushStreams sends one element per round per edge. The path-parent and
// light-parent edges are distinct uses of the same physical tree parent
// port depending on whether the node tops its path, so there is no port
// contention.
func (p *pathProc) flushStreams(ctx *congest.Ctx, v int) {
	h := p.e.Heavy
	if len(p.stream[v]) > 0 && !p.broken[v] {
		if pp := h.UpPathPort(p.e.Tree, v); pp >= 0 && ctx.CanSend(pp) {
			part := p.stream[v][0]
			p.stream[v] = p.stream[v][1:]
			p.inf.SC.ClaimUp(v, part)
			ctx.Send(pp, congest.Message{Kind: kPathClaim, A: part, B: p.streamDst[v]})
		}
	}
	if len(p.lightQ[v]) > 0 {
		if lp := p.e.Tree.ParentPort[v]; lp >= 0 && ctx.CanSend(lp) {
			part := p.lightQ[v][0]
			p.lightQ[v] = p.lightQ[v][1:]
			p.inf.SC.ClaimUp(v, part)
			ctx.Send(lp, congest.Message{Kind: kPathClaim, A: part, B: 0})
		}
	}
}
