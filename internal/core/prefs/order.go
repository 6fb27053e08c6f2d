package prefs

import "slices"

// Cell codes for one pair (a, b) of a compiled row, a < b in local order.
const (
	cellEqual  byte = iota // equal preference: the earlier-announced item wins
	cellFirst              // a wins strictly
	cellSecond             // b wins strictly
)

// orderSearch is a store compiled for scoring announcement orders over one
// item subset (§4.5 step 3). Rows with an unknown relation over the subset
// can never be ordered, so they are dropped. The rest are deduplicated by
// their (relation, winner) cells into patterns. Each pattern keeps its strict
// win count per item and its list of equal pairs. Under an announcement order
// every equal pair adds one win to its earlier-announced item. The row is
// then a total order iff the win counts are a permutation of 0..n-1: by
// Landau's theorem a tournament is transitive exactly when its score sequence
// is, which is the test ClientPrefs.TotalOrder applies row by row.
//
// Scoring an order therefore costs O(patterns × (items + equal pairs)) and
// allocates nothing, against O(clients × items²) plus a map and an n×n
// matrix per client for the per-row loop.
type orderSearch struct {
	n       int // items in the subset; local item i is the subset's i-th
	clients int // every recorded row, dropped or not: the frac denominator
	mult    []int
	// wins[p*n+i] is local item i's strict win count in pattern p.
	wins []int32
	// Pattern p's equal pairs are eq[eqOff[p]:eqOff[p+1]], as local indices.
	eq    [][2]uint16
	eqOff []int32

	cnt  []int32  // scoring scratch: one pattern's win counts
	seen []uint64 // scoring scratch: bitset of win counts seen
}

// compileOrders compiles the store over the items at store indices idx,
// which must be distinct and hold at least one index.
func (s *Store) compileOrders(idx []int) *orderSearch {
	n := len(idx)
	o := &orderSearch{
		n:       n,
		clients: len(s.keys),
		eqOff:   []int32{0},
		cnt:     make([]int32, n),
		seen:    make([]uint64, (n+63)/64),
	}
	type pair struct{ a, b, off int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, pair{a, b, s.pairIdx(idx[a], idx[b])})
		}
	}
	patterns := make(map[string]int)
	key := make([]byte, len(pairs))
rows:
	for row := range s.keys {
		base := row * s.nPairs
		for k, p := range pairs {
			switch s.rels[base+p.off] {
			case RelEqual:
				key[k] = cellEqual
			case RelStrict:
				if int(s.winIdx[base+p.off]) == idx[p.a] {
					key[k] = cellFirst
				} else {
					key[k] = cellSecond
				}
			default:
				continue rows
			}
		}
		if pi, ok := patterns[string(key)]; ok {
			o.mult[pi]++
			continue
		}
		patterns[string(key)] = len(o.mult)
		o.mult = append(o.mult, 1)
		w := len(o.wins)
		o.wins = append(o.wins, make([]int32, n)...)
		for k, p := range pairs {
			switch key[k] {
			case cellFirst:
				o.wins[w+p.a]++
			case cellSecond:
				o.wins[w+p.b]++
			default:
				o.eq = append(o.eq, [2]uint16{uint16(p.a), uint16(p.b)})
			}
		}
		o.eqOff = append(o.eqOff, int32(len(o.eq)))
	}
	return o
}

// frac returns the fraction of recorded clients with a total order when
// local item i is announced at position rank[i] — the same value
// FracWithTotalOrder's per-client loop produces, from the same integer
// numerator.
func (o *orderSearch) frac(rank []int) float64 {
	if o.clients == 0 {
		return 0
	}
	ordered := 0
	for p, m := range o.mult {
		cnt := o.cnt
		copy(cnt, o.wins[p*o.n:(p+1)*o.n])
		for _, e := range o.eq[o.eqOff[p]:o.eqOff[p+1]] {
			if rank[e[0]] < rank[e[1]] {
				cnt[e[0]]++
			} else {
				cnt[e[1]]++
			}
		}
		if o.isPermutation(cnt) {
			ordered += m
		}
	}
	return float64(ordered) / float64(o.clients)
}

// isPermutation reports whether cnt, whose values lie in [0, n), holds each
// value once.
func (o *orderSearch) isPermutation(cnt []int32) bool {
	clear(o.seen)
	for _, c := range cnt {
		w, bit := c>>6, uint64(1)<<(c&63)
		if o.seen[w]&bit != 0 {
			return false
		}
		o.seen[w] |= bit
	}
	return true
}

// FracWithTotalOrder returns the fraction of recorded clients having a total
// order over the given announcement order.
func (s *Store) FracWithTotalOrder(announce []Item) float64 {
	switch {
	case len(s.keys) == 0 || len(announce) == 0:
		return 0
	case len(announce) == 1:
		return 1 // one item is trivially ordered, as TotalOrder has it
	}
	idx := make([]int, len(announce))
	rank := make([]int, len(announce))
	used := make([]bool, len(s.items))
	for k, it := range announce {
		i, ok := s.index[it]
		if !ok || used[i] {
			return 0 // a foreign or repeated item orders no client
		}
		used[i] = true
		idx[k], rank[k] = i, k
	}
	return s.compileOrders(idx).frac(rank)
}

// BestAnnouncementOrder searches announcement orders of the items and returns
// the one maximizing the fraction of clients with a total order (§4.5 step 3:
// "the announcement order that maximizes the number of client networks with a
// consistent total order"). For ≤ maxExhaustive items every permutation is
// tried; beyond that a greedy insertion heuristic is used. Ties keep the
// first order found.
func (s *Store) BestAnnouncementOrder(maxExhaustive int) ([]Item, float64) {
	n := len(s.items)
	if n <= 1 {
		return s.Items(), s.FracWithTotalOrder(s.items)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rank := make([]int, n)
	if n <= maxExhaustive {
		o := s.compileOrders(idx)
		bestFrac := -1.0
		var best []Item
		permute(idx, func(p []int) {
			for pos, i := range p {
				rank[i] = pos
			}
			if f := o.frac(rank); f > bestFrac {
				bestFrac = f
				best = best[:0]
				for _, i := range p {
					best = append(best, s.items[i])
				}
			}
		})
		return best, bestFrac
	}
	// Greedy insertion: grow the order one item at a time, placing each new
	// item at the position that keeps the most clients consistent. Stage k
	// orders items 0..k, so it scores against the store compiled over them;
	// the last stage covers every item, so its best score is the result's.
	order := []int{0}
	var frac float64
	for k := 1; k < n; k++ {
		o := s.compileOrders(idx[:k+1])
		bestFrac := -1.0
		bestPos := 0
		for pos := 0; pos <= len(order); pos++ {
			for r, i := range order {
				if r >= pos {
					r++
				}
				rank[i] = r
			}
			rank[k] = pos
			if f := o.frac(rank); f > bestFrac {
				bestFrac = f
				bestPos = pos
			}
		}
		order = slices.Insert(order, bestPos, k)
		frac = bestFrac
	}
	out := make([]Item, n)
	for pos, i := range order {
		out[pos] = s.items[i]
	}
	return out, frac
}

// permute calls fn for every permutation of p, in place (Heap's algorithm).
func permute(p []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(len(p))
}
