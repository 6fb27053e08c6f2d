package prefs_test

import (
	"sync"
	"testing"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

var (
	paperOnce  sync.Once
	paperProvs *prefs.Store
	paperErr   error
)

// paperProviders runs one paper-scale discovery campaign (seed 1: 6
// providers, 2,780 targets) and returns its provider-level store.
func paperProviders(b *testing.B) *prefs.Store {
	b.Helper()
	paperOnce.Do(func() {
		topo, err := topology.Generate(topology.DefaultParams())
		if err != nil {
			paperErr = err
			return
		}
		tb, err := testbed.New(topo, testbed.Options{Seed: 1})
		if err != nil {
			paperErr = err
			return
		}
		pred, _, err := predict.NewPredictor(tb, discovery.New(tb, discovery.DefaultConfig()), false)
		if err != nil {
			paperErr = err
			return
		}
		paperProvs = pred.Providers
	})
	if paperErr != nil {
		b.Fatal(paperErr)
	}
	return paperProvs
}

// BenchmarkBestAnnouncementOrder times §4.5 step 3 on a paper-scale provider
// store: all 720 announcement orders of six providers, scored over every
// client — the call each discovery job and cone repair ends with.
func BenchmarkBestAnnouncementOrder(b *testing.B) {
	store := paperProviders(b)
	b.ReportAllocs()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		_, frac = store.BestAnnouncementOrder(7)
	}
	b.ReportMetric(frac, "frac")
	b.ReportMetric(float64(store.NumClients()), "clients")
}
