package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// diffSeeds covers the seed reduction's edge cases: zero (remapped), a
// negative seed, the modulus itself and a multiple of it (both reduce to
// zero), and seeds wider than 31 bits on either side.
var diffSeeds = []int64{
	0, -1, 1, 2, mod - 1, mod, 3 * mod, 1 << 40, -(1 << 62),
	math.MaxInt64, math.MinInt64, 0x5deece66d,
}

// draws spans several passes over the 607-word register, so materialised,
// rewritten and wrapped words are all read.
const draws = 3000

func TestMatchesMathRandSource(t *testing.T) {
	for _, seed := range diffSeeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for k := 0; k < draws; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, k, g, w)
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 after draw %d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestMatchesThroughRand drives both sources through the rand.Rand methods
// the simulator uses, so rejection loops and the ziggurat tail see identical
// streams.
func TestMatchesThroughRand(t *testing.T) {
	for _, seed := range diffSeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for k := 0; k < draws; k++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, k, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, k, g, w)
			}
			n := int64(k%1000+1) * 2_500_000 // includes powers of two and odd bounds
			if w, g := want.Int63n(n), got.Int63n(n); w != g {
				t.Fatalf("seed %d: Int63n(%d) #%d = %d, want %d", seed, n, k, g, w)
			}
			if w, g := want.Intn(7), got.Intn(7); w != g {
				t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestReseedMidStream reseeds a source that has already drawn (so some
// words are materialised and rewritten under the old epoch) and checks the
// new stream starts fresh — through rand.Rand.Seed, the way the noise model
// rewinds per target.
func TestReseedMidStream(t *testing.T) {
	got := rand.New(New(42))
	for i, seed := range diffSeeds {
		for k := 0; k < 50*i; k++ {
			got.Int63()
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("reseed %d: draw %d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

func TestSeedAllocatesNothing(t *testing.T) {
	s := New(1)
	allocs := testing.AllocsPerRun(100, func() {
		s.Seed(12345)
		for k := 0; k < 12; k++ {
			s.Uint64()
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed + 12 draws allocated %v times", allocs)
	}
}

// benchmarkReseed measures one reseed plus the dozen draws a probed target
// typically consumes.
func benchmarkReseed(b *testing.B, src rand.Source) {
	var sink int64
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for k := 0; k < 12; k++ {
			sink += src.Int63()
		}
	}
	_ = sink
}

func BenchmarkReseed(b *testing.B) {
	b.Run("lazy", func(b *testing.B) { benchmarkReseed(b, New(1)) })
	b.Run("mathrand", func(b *testing.B) { benchmarkReseed(b, rand.NewSource(1)) })
}
