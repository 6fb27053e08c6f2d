// Package lazyrand provides a rand.Source64 that reproduces
// rand.NewSource(seed) draw for draw but reseeds in O(1).
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register. Its Seed fills every word up front: word i is three
// consecutive states of the Lehmer generator x ← 48271·x mod (2³¹−1),
// started from the seed, packed into 64 bits and XORed with a fixed "cooked"
// table. That is ~1,800 modular steps per Seed, which dominates callers that
// reseed once per measured target and then draw a dozen values.
//
// Every Lehmer state is a closed form, seed·48271^k mod (2³¹−1), so word i
// can be computed from the seed alone. Source therefore makes Seed store the
// reduced seed and clear a 607-bit "materialised" set, and Uint64 computes a
// register word only the first time a draw reads it after a Seed, using
// precomputed powers of 48271. The draw recurrence is unchanged, so the output stream is
// bit-identical to math/rand's for every seed.
//
// The cooked table is not copied from math/rand: init recovers it from the
// first 607 outputs of rand.NewSource(1), which fixes the register rand
// seeded, and the tests check the result against rand.NewSource over many
// seeds.
package lazyrand

import "math/rand"

const (
	length = 607 // register words (math/rand rngLen)
	tap    = 273 // feedback lag (math/rand rngTap)
	mod    = 1<<31 - 1
	mult   = 48271
	// warmup is the number of Lehmer steps math/rand discards before word 0.
	warmup = 20
	// zeroSeed replaces a seed congruent to 0, as math/rand does.
	zeroSeed = 89482311
	mask63   = 1<<63 - 1
)

var (
	// pow[k] = 48271^k mod (2³¹−1), for every Lehmer step a word reads.
	pow [warmup + 3*length + 1]uint64
	// cooked is math/rand's seeding table (rngCooked), as uint64 bits.
	cooked [length]uint64
)

func init() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * mult % mod
	}

	// Draw k writes reg[feed_k] += reg[tap_k], where
	// feed_k = (length-tap-1-k) mod length and tap_k = length-1-k, and
	// returns the new reg[feed_k]. Over the first length draws each word is
	// written exactly once, so the seeded register follows by subtraction:
	// for k >= tap the tap word was already written (by draw k-tap), for
	// k < tap it is written later, by a draw the first loop covers.
	src := rand.NewSource(1).(rand.Source64)
	var out, reg [length]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := tap; k < length; k++ {
		reg[(2*length-tap-1-k)%length] = out[k] - out[k-tap]
	}
	for k := 0; k < tap; k++ {
		reg[length-tap-1-k] = out[k] - reg[length-1-k]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord packs Lehmer states 3i+21..3i+23 from seed the way math/rand's
// Seed packs them into register word i (before the cooked XOR).
func lehmerWord(seed uint64, i int) uint64 {
	k := warmup + 3*i
	x1 := seed * pow[k+1] % mod
	x2 := seed * pow[k+2] % mod
	x3 := seed * pow[k+3] % mod
	return x1<<40 ^ x2<<20 ^ x3
}

// Source is a math/rand-compatible generator with O(1) Seed. Build one with
// New; a Source is not safe for concurrent use.
type Source struct {
	seed      uint64 // reduced seed in [1, 2³¹−2]
	tap, feed int
	reg       [length]uint64
	// have bit i is set once reg[i] holds this seed's word.
	have [(length + 63) / 64]uint64
}

// New returns a Source seeded with seed; its draws equal
// rand.NewSource(seed)'s.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
// It costs O(1): register words are rebuilt lazily as draws reach them.
func (s *Source) Seed(seed int64) {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = length - tap
	clear(s.have[:])
}

// word returns register word i, materialising it on first read after Seed.
func (s *Source) word(i int) uint64 {
	if bit := uint64(1) << (i & 63); s.have[i>>6]&bit == 0 {
		s.have[i>>6] |= bit
		s.reg[i] = lehmerWord(s.seed, i) ^ cooked[i]
	}
	return s.reg[i]
}

// Uint64 returns the next 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.reg[s.feed] = x
	return x
}

// Int63 returns a non-negative 63-bit value.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & mask63)
}
