package prefs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refFrac is the per-client loop FracWithTotalOrder ran before the compiled
// search: one TotalOrder call per recorded client. It is the differential
// reference for the compiled path.
func refFrac(s *Store, announce []Item) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	n := 0
	for i := range s.keys {
		if s.views[i].HasTotalOrder(announce) {
			n++
		}
	}
	return float64(n) / float64(len(s.keys))
}

// refPermute is the item-permuting Heap's algorithm the reference search
// enumerated with.
func refPermute(items []Item, fn func([]Item)) {
	p := append([]Item(nil), items...)
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

// refBestOrder is BestAnnouncementOrder as it was before the compiled
// search, scoring every candidate order with refFrac.
func refBestOrder(s *Store, maxExhaustive int) ([]Item, float64) {
	items := s.Items()
	if len(items) <= 1 {
		return items, refFrac(s, items)
	}
	if len(items) <= maxExhaustive {
		bestFrac := -1.0
		var best []Item
		refPermute(items, func(p []Item) {
			if f := refFrac(s, p); f > bestFrac {
				bestFrac = f
				best = append([]Item(nil), p...)
			}
		})
		return best, bestFrac
	}
	order := []Item{items[0]}
	for _, it := range items[1:] {
		bestFrac := -1.0
		bestPos := 0
		for pos := 0; pos <= len(order); pos++ {
			trial := slices.Insert(slices.Clone(order), pos, it)
			if f := refFrac(s, trial); f > bestFrac {
				bestFrac = f
				bestPos = pos
			}
		}
		order = slices.Insert(order, bestPos, it)
	}
	return order, refFrac(s, order)
}

// randomOrderStore builds a store over n items whose clients mix the row
// shapes the order search must tell apart: strict rankings, equal pairs that
// the announcement order resolves (sometimes into a cycle), simultaneous
// (possibly cyclic) outcomes, and unknown cells. Clients are recorded out of
// order and repeat shapes, so deduplication and row shifts are exercised.
func randomOrderStore(t testing.TB, rng *rand.Rand, n, clients int, unknownP float64) *Store {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(100 + 7*i)
	}
	s := mustStore(t, items...)
	shapes := 1 + rng.Intn(clients)
	for c := 0; c < clients; c++ {
		client := Client(rng.Intn(4 * clients))
		srng := rand.New(rand.NewSource(int64(client % Client(shapes))))
		rank := srng.Perm(n)
		eqP := srng.Float64() * 0.6
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if srng.Float64() < unknownP {
					continue
				}
				i, j := items[a], items[b]
				win := i
				if rank[b] < rank[a] {
					win = j
				}
				var err error
				switch r := srng.Float64(); {
				case r < eqP:
					err = s.RecordOrdered(client, i, j, i, j)
				case r < eqP+0.1:
					err = s.RecordSimultaneous(client, i, j, [2]Item{i, j}[srng.Intn(2)])
				default:
					err = s.RecordOrdered(client, i, j, win, win)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

func checkFrac(t *testing.T, s *Store, announce []Item) {
	t.Helper()
	got, want := s.FracWithTotalOrder(announce), refFrac(s, announce)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("FracWithTotalOrder(%v) = %v, reference %v", announce, got, want)
	}
}

// TestOrderSearchMatchesReference compares the compiled search with the
// per-client loop on random stores, through both the exhaustive and the
// greedy path, by order and by float bits.
func TestOrderSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(11)
		unknownP := [...]float64{0, 0.01, 0.1}[trial%3]
		s := randomOrderStore(t, rng, n, 1+rng.Intn(100), unknownP)
		// 7 is exhaustive up to seven items (the callers' setting) and
		// greedy past it; 0 and n-1 always take the greedy path.
		for _, maxEx := range []int{0, n - 1, 7} {
			got, gotFrac := s.BestAnnouncementOrder(maxEx)
			want, wantFrac := refBestOrder(s, maxEx)
			if !slices.Equal(got, want) || math.Float64bits(gotFrac) != math.Float64bits(wantFrac) {
				t.Fatalf("trial %d (n=%d, maxExhaustive=%d): order %v frac %v, reference %v frac %v",
					trial, n, maxEx, got, gotFrac, want, wantFrac)
			}
		}
		items := s.Items()
		for k := 0; k < 5; k++ {
			perm := slices.Clone(items)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			checkFrac(t, s, perm)
			checkFrac(t, s, perm[:rng.Intn(len(perm)+1)])
		}
	}
}

// TestFracWithTotalOrderEdgeCases pins the announce lists TotalOrder rejects
// or accepts trivially: empty, one item (even a foreign one), duplicates,
// and foreign items among known ones — and the empty store.
func TestFracWithTotalOrderEdgeCases(t *testing.T) {
	s := randomOrderStore(t, rand.New(rand.NewSource(3)), 4, 40, 0.05)
	it := s.Items()
	for _, announce := range [][]Item{
		nil,
		{it[0]},
		{999},
		{it[0], it[0]},
		{it[0], it[1], it[0]},
		{it[0], 999},
		{999, it[2], it[1]},
		{it[3], it[1]},
		{it[2], it[0], it[3], it[1]},
	} {
		checkFrac(t, s, announce)
	}
	empty := mustStore(t, 1, 2, 3)
	checkFrac(t, empty, []Item{1, 2, 3})
	if order, frac := empty.BestAnnouncementOrder(6); !slices.Equal(order, []Item{1, 2, 3}) || frac != 0 {
		t.Errorf("empty store: order %v frac %v, want [1 2 3] 0", order, frac)
	}
	one := mustStore(t, 5)
	if order, frac := one.BestAnnouncementOrder(6); !slices.Equal(order, []Item{5}) || frac != 0 {
		t.Errorf("one-item store: order %v frac %v, want [5] 0", order, frac)
	}
}

func TestScoreOrderAllocatesNothing(t *testing.T) {
	s := randomOrderStore(t, rand.New(rand.NewSource(5)), 6, 200, 0.02)
	idx := []int{0, 1, 2, 3, 4, 5}
	o := s.compileOrders(idx)
	rank := []int{3, 1, 4, 0, 5, 2}
	if allocs := testing.AllocsPerRun(50, func() { o.frac(rank) }); allocs != 0 {
		t.Fatalf("scoring one order allocated %v times", allocs)
	}
}
