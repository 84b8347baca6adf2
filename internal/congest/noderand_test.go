package congest

import (
	"math"
	"math/rand"
	"testing"

	"shortcutpa/internal/graph"
)

// noderand_test.go pins nodeSource's exactness contract: every draw equals
// rand.NewSource(seed)'s, through the closed-form first rngTap draws, the
// fallback to a real math/rand source, the register's rngLen wrap, and Seed
// mid-stream.

// checkNodeRand compares nodeSource against rand.NewSource for seed over
// draws raw draws (Uint64 and Int63 interleaved), then draws derived
// draws through rand.New (Float64, Intn, Perm), then reseeds both
// mid-stream and compares another stretch that crosses the fallback again.
func checkNodeRand(t *testing.T, seed int64, draws int) {
	t.Helper()
	got, want := newNodeSource(seed), rand.NewSource(seed).(rand.Source64)
	for k := 0; k < draws; k++ {
		var g, w uint64
		if k%3 == 2 {
			g, w = uint64(got.Int63()), uint64(want.Int63())
		} else {
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d: raw draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}

	gr, wr := rand.New(newNodeSource(seed)), rand.New(rand.NewSource(seed))
	for k := 0; k < draws; k++ {
		switch k % 4 {
		case 0:
			if g, w := gr.Float64(), wr.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %d = %v, math/rand %v", seed, k, g, w)
			}
		case 1:
			if g, w := gr.Intn(k+1), wr.Intn(k+1); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, k+1, g, w)
			}
		case 2:
			if g, w := gr.Intn(1<<40+k), wr.Intn(1<<40+k); g != w {
				t.Fatalf("seed %d: Intn(2^40+%d) = %d, math/rand %d", seed, k, g, w)
			}
		case 3:
			g, w := gr.Perm(5), wr.Perm(5)
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d: Perm(5) at %d = %v, math/rand %v", seed, k, g, w)
				}
			}
		}
	}

	// Seed mid-stream restarts both at the new seed's origin.
	reseed := seed*31 + int64(draws)
	gr.Seed(reseed)
	wr.Seed(reseed)
	for k := 0; k < rngTap+40; k++ {
		if g, w := gr.Uint64(), wr.Uint64(); g != w {
			t.Fatalf("seed %d reseeded to %d: draw %d = %#x, math/rand %#x", seed, reseed, k, g, w)
		}
	}
}

// nodeRandSeeds returns the exactness seeds: the normalization edges
// (0, multiples of 2³¹−1 and their negatives, math/rand's zero-seed
// replacement, the int64 extremes) plus pseudo-random seeds to n in total.
func nodeRandSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2,
		int32max, -int32max, int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
		2 * int32max, -2 * int32max, 7 * int32max, -7 * int32max, 1 << 30 * int32max,
		seedZero, -seedZero, seedZero + int32max,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		1<<31 - 2, 1 << 31, 1 << 32, -(1 << 32),
	}
	r := rand.New(rand.NewSource(20180117))
	for len(seeds) < n {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestNodeRandMatchesMathRand is the exactness contract over 211 seeds.
// Draw counts sweep 0..1500 and include the fallback boundary (rngTap) and
// the register wrap (rngLen) on both sides.
func TestNodeRandMatchesMathRand(t *testing.T) {
	counts := []int{0, 1, 2, rngTap - 1, rngTap, rngTap + 1, rngTap + 2,
		rngLen - rngTap, rngLen - 1, rngLen, rngLen + 1, 2*rngLen + 3, 1500}
	for i, seed := range nodeRandSeeds(211) {
		draws := counts[i%len(counts)]
		if i >= 2*len(counts) {
			draws = (i * 997) % 1501
		}
		checkNodeRand(t, seed, draws)
	}
}

// FuzzNodeRand runs the exactness comparison on arbitrary seeds and draw
// counts (folded into 0..1500).
func FuzzNodeRand(f *testing.F) {
	for _, seed := range []int64{0, int32max, -int32max, seedZero, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(rngTap+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkNodeRand(t, seed, int(draws)%1501)
	})
}

// BenchmarkNodeRand measures what a drawing node pays for its PRNG on a
// constructed network: the first Float64 of a node that never drew (the
// representative coin flip of most randomized protocols), and 300 draws,
// which cross the closed-form range into the math/rand fallback. Each op
// takes the next untouched node; the network is Reset between sweeps.
func BenchmarkNodeRand(b *testing.B) {
	net := NewNetwork(graph.Torus(64, 64), 42)
	for _, draws := range []int{1, 300} {
		name := "first"
		if draws > 1 {
			name = "draws=300"
		}
		b.Run(name, func(b *testing.B) {
			net.Reset()
			b.ReportAllocs()
			v, sink := 0, 0.0
			for i := 0; i < b.N; i++ {
				if v == net.N() {
					net.Reset()
					v = 0
				}
				r := net.rng(v)
				for k := 0; k < draws; k++ {
					sink += r.Float64()
				}
				v++
			}
			if sink < 0 {
				b.Fatal("negative draw")
			}
		})
	}
}
