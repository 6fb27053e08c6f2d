package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read off fewer samples than this is one or two outliers, not a
// percentile.
const minBeyond = 10

// samples are timed observations in milliseconds.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the nearest-rank index of percentile q (0 < q <= 100)
// in a sorted sample of size n: the smallest index whose value has at least
// q% of the sample at or below it.
func nearestRank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n)/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tailRank applies the percentile rule: report the wanted percentile when
// at least minBeyond samples lie above it, otherwise the highest percentile
// that still has minBeyond samples above it. With n <= minBeyond no
// percentile qualifies and ok is false.
func tailRank(n int, want float64) (idx int, q float64, ok bool) {
	maxIdx := n - 1 - minBeyond
	if maxIdx < 0 {
		return 0, 0, false
	}
	idx = nearestRank(n, want)
	if idx <= maxIdx {
		return idx, want, true
	}
	return maxIdx, 100 * float64(maxIdx+1) / float64(n), true
}

// summary is a latency distribution reduced to the reported figures.
type summary struct {
	N   int
	P50 float64
	// Tail is read at percentile TailQ by the tailRank rule, but never
	// below the median: under 2*minBeyond samples no percentile above the
	// median has minBeyond samples beyond it, and the tail is the median.
	Tail  float64
	TailQ float64
	Max   float64
}

func summarize(s samples, want float64) summary {
	v := s.sorted()
	if len(v) == 0 {
		return summary{}
	}
	mid := nearestRank(len(v), 50)
	out := summary{N: len(v), P50: v[mid], Max: v[len(v)-1], Tail: v[mid], TailQ: 50}
	if idx, q, ok := tailRank(len(v), want); ok && idx > mid {
		out.Tail, out.TailQ = v[idx], q
	}
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50 %.3f tail p%.4g %.3f max %.3f", s.N, s.P50, s.TailQ, s.Tail, s.Max)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
