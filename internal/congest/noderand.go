package congest

import "math/rand"

// nodeSource is the rand.Source64 behind every node's Ctx.Rand. Its stream
// is bit-for-bit that of rand.NewSource(seed) — so protocol costs and the
// golden fixtures do not depend on which source is used — but it starts
// from 24 bytes and no seeding pass instead of math/rand's 5.4 KB source
// and its ~17 µs seeding loop, which a node drawing one coin paid in full.
//
// math/rand's generator is an additive lagged Fibonacci register of rngLen
// words with tap rngTap, seeded from the Lehmer LCG x ← 48271·x mod (2³¹−1):
// entry i XORs LCG outputs 21+3i, 22+3i and 23+3i with rngCooked[i]. LCG
// output k is the normalized seed times 48271^k, so any entry follows
// directly from the seed and a table of those powers (lcgPow). Draw k
// (1-based) of a freshly seeded register returns vec[334−k] + vec[607−k],
// and for k ≤ rngTap neither entry has been overwritten yet, so the first
// rngTap draws need no register at all. The rare node that draws more builds
// the real rand.NewSource(seed), discards the draws already served and
// delegates from then on, paying math/rand's cost once.
type nodeSource struct {
	x0    uint32        // normalized seed in [1, 2³¹−2]: the LCG's origin
	drawn uint32        // draws served in closed form, at most rngTap
	full  rand.Source64 // the real math/rand source past rngTap draws; nil before
}

const (
	rngLen   = 607       // math/rand's register length
	rngTap   = 273       // math/rand's tap distance
	int32max = 1<<31 - 1 // the seeding LCG's modulus
	lcgMul   = 48271     // the seeding LCG's multiplier
	seedZero = 89482311  // math/rand's replacement for a seed ≡ 0
)

// lcgPow[i] is 48271^(21+3i) mod (2³¹−1): the factor that takes the
// normalized seed to the first of register entry i's three LCG outputs.
var lcgPow = func() (p [rngLen]uint64) {
	a := uint64(1)
	for k := 0; k < 21; k++ {
		a = a * lcgMul % int32max
	}
	for i := range p {
		p[i] = a
		for k := 0; k < 3; k++ {
			a = a * lcgMul % int32max
		}
	}
	return p
}()

func newNodeSource(seed int64) *nodeSource {
	s := new(nodeSource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed's origin, normalizing it exactly as
// math/rand does; a fallback source built for the old stream is dropped.
func (s *nodeSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	*s = nodeSource{x0: uint32(seed)}
}

// vec returns entry i of a freshly seeded math/rand register.
func (s *nodeSource) vec(i int) int64 {
	x1 := lcgPow[i] * uint64(s.x0) % int32max
	x2 := x1 * lcgMul % int32max
	x3 := x2 * lcgMul % int32max
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// Uint64 returns the next draw of rand.NewSource(seed)'s stream.
func (s *nodeSource) Uint64() uint64 {
	if s.full == nil {
		if s.drawn < rngTap {
			s.drawn++
			k := int(s.drawn)
			return uint64(s.vec(rngLen-rngTap-k) + s.vec(rngLen-k))
		}
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range s.drawn {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next draw with its top bit cleared, as math/rand does.
func (s *nodeSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
