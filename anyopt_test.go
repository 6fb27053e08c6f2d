package anyopt

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
)

// sharedSystem amortizes the discovery campaign across facade tests.
var sharedSystem *System

func getSystem(t *testing.T) *System {
	t.Helper()
	if sharedSystem != nil {
		return sharedSystem
	}
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	sharedSystem = sys
	return sys
}

func TestNewValidatesParams(t *testing.T) {
	opts := DefaultOptions()
	opts.Topology.NumTier1 = 0
	if _, err := New(opts); err == nil {
		t.Error("invalid topology params accepted")
	}
}

func TestDiscoveryRequired(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PredictCatchments(Config{1}); err == nil {
		t.Error("prediction before discovery succeeded")
	}
	if _, _, err := sys.PredictMeanRTT(Config{1}); err == nil {
		t.Error("mean RTT before discovery succeeded")
	}
	if _, err := sys.Optimize(4, 0); err == nil {
		t.Error("optimize before discovery succeeded")
	}
	if _, err := sys.GreedyConfig(4); err == nil {
		t.Error("greedy before discovery succeeded")
	}
}

func TestEndToEndOptimizeBeatsBaselines(t *testing.T) {
	sys := getSystem(t)
	const k = 6

	opt, err := sys.Optimize(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Config) != k {
		t.Fatalf("optimized config %v has %d sites", opt.Config, len(opt.Config))
	}
	if opt.OrderableClients < 200 {
		t.Errorf("only %d orderable clients", opt.OrderableClients)
	}

	greedy, err := sys.GreedyConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	random, err := sys.RandomConfig(k, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	measure := func(cfg Config) time.Duration {
		_, rtts := sys.MeasureConfiguration(cfg)
		mean, n := predict.MeasuredMeanRTT(rtts)
		if n == 0 {
			t.Fatalf("config %v: no measurements", cfg)
		}
		return mean
	}
	mOpt := measure(opt.Config)
	mGreedy := measure(greedy)
	mRandom := measure(random)
	t.Logf("measured means: anyopt=%v greedy=%v random=%v (predicted %v)",
		mOpt, mGreedy, mRandom, opt.PredictedMean)

	// §5.3's headline: the optimizer's config beats greedy-by-unicast and
	// random on the deployed network (small tolerance for noise).
	if float64(mOpt) > float64(mGreedy)*1.02 {
		t.Errorf("anyopt (%v) did not beat greedy (%v)", mOpt, mGreedy)
	}
	if float64(mOpt) > float64(mRandom)*1.02 {
		t.Errorf("anyopt (%v) did not beat random (%v)", mOpt, mRandom)
	}
}

func TestPredictionMatchesDeployment(t *testing.T) {
	sys := getSystem(t)
	cfg := Config{1, 3, 4, 5, 6, 10}
	predicted, err := sys.PredictCatchments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	measured, _ := sys.MeasureConfiguration(cfg)
	acc, n := predict.Accuracy(predicted, measured)
	if n < 100 {
		t.Fatalf("only %d comparable clients", n)
	}
	if acc < 0.85 {
		t.Errorf("catchment accuracy %.3f below 0.85", acc)
	}
}

func TestAllSitesAndPeers(t *testing.T) {
	sys := getSystem(t)
	all := sys.AllSitesConfig()
	if len(all) != 15 {
		t.Errorf("all-sites config has %d sites", len(all))
	}
	seen := map[int]bool{}
	for _, id := range all {
		if seen[id] {
			t.Errorf("duplicate site %d in all-sites config", id)
		}
		seen[id] = true
	}
	if got := len(sys.AllPeerLinks()); got != 104 {
		t.Errorf("peer links = %d, want 104", got)
	}
}

// wideSystem deploys Table 1 five times over (75 sites, past the 64 a uint64
// subset mask can hold) and publishes a campaign with empty preference
// stores: enough for the configuration helpers, which read only the testbed
// and the announcement order.
func wideSystem(t *testing.T) *System {
	t.Helper()
	opts := DefaultOptions()
	for i := 0; i < 5; i++ {
		for _, s := range testbed.Table1 {
			s.Peers = 0
			opts.Testbed.Sites = append(opts.Testbed.Sites, s)
		}
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var order []prefs.Item
	for _, p := range sys.TB.TransitProviders() {
		order = append(order, prefs.Item(p))
	}
	sys.InstallCampaign(&predict.Predictor{TB: sys.TB}, nil, order, 0, nil)
	return sys
}

// distinctSorted returns cfg's site IDs sorted, duplicates dropped.
func distinctSorted(cfg Config) []int {
	ids := slices.Clone(cfg)
	slices.Sort(ids)
	return slices.Compact(ids)
}

func TestAllSitesConfigPast64Sites(t *testing.T) {
	sys := wideSystem(t)
	all := sys.AllSitesConfig()
	if len(all) != 75 {
		t.Fatalf("all-sites config has %d of 75 sites: %v", len(all), all)
	}
	if got := distinctSorted(all); len(got) != 75 || got[0] != 1 || got[74] != 75 {
		t.Errorf("all-sites config is not sites 1..75: %v", all)
	}
}

func TestRandomConfigPast64Sites(t *testing.T) {
	sys := wideSystem(t)
	rng := rand.New(rand.NewSource(3))
	cfg, err := sys.RandomConfig(70, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg) != 70 || len(distinctSorted(cfg)) != 70 {
		t.Errorf("random 70-site config has %d distinct sites: %v", len(cfg), cfg)
	}
	for _, k := range []int{-1, 0, 76} {
		if cfg, err := sys.RandomConfig(k, rng); err == nil {
			t.Errorf("RandomConfig(%d) = %v, want an error", k, cfg)
		}
	}
}

func TestOnePassPeeringViaFacade(t *testing.T) {
	sys := getSystem(t)
	base := Config{1, 3, 4, 5, 6, 10}
	peers := sys.AllPeerLinks()[:10]
	res := sys.OnePassPeering(base, peers)
	if len(res.Reports) != 10 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.BaselineMean <= 0 {
		t.Error("no baseline")
	}
}

func TestOptimizeWithBudget(t *testing.T) {
	sys := getSystem(t)
	res, err := sys.Optimize(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubsetsEvaluated > 500 {
		t.Errorf("budget exceeded: %d", res.SubsetsEvaluated)
	}
	if len(res.Config) == 0 {
		t.Error("empty config from budgeted search")
	}
}

func TestExperimentsCounter(t *testing.T) {
	sys := getSystem(t)
	before := sys.Experiments()
	sys.MeasureConfiguration(Config{1})
	if sys.Experiments() != before+1 {
		t.Errorf("experiment counter did not advance")
	}
}

func TestOptimizeLoadAware(t *testing.T) {
	sys := getSystem(t)
	loads := map[Client]float64{}
	var total float64
	for _, tg := range sys.Topo.Targets {
		loads[Client(tg.AS)] = 1
		total++
	}
	const k = 6

	// Without caps, load-aware matches plain optimize on uniform loads.
	free, err := sys.OptimizeLoadAware(k, 0, loads, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Optimize(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if free.PredictedMean != plain.PredictedMean {
		t.Errorf("uniform load-aware mean %v != plain %v", free.PredictedMean, plain.PredictedMean)
	}

	// Find the hottest site under the free optimum and cap below its load:
	// the capped optimum must respect the cap and cannot be better.
	freeLoads, err := sys.PredictSiteLoads(free.Config, loads)
	if err != nil {
		t.Fatal(err)
	}
	hottest := 0.0
	for _, l := range freeLoads {
		if l > hottest {
			hottest = l
		}
	}
	if hottest <= total/float64(k) {
		t.Skip("free optimum already balanced; nothing to cap")
	}
	caps := map[int]float64{}
	for _, s := range sys.TB.Sites {
		caps[s.ID] = hottest * 0.9
	}
	capped, err := sys.OptimizeLoadAware(k, 0, loads, caps)
	if err != nil {
		t.Skipf("cap at 90%% of hotspot infeasible: %v", err)
	}
	if capped.PredictedMean < free.PredictedMean {
		t.Errorf("capped optimum %v beat the unconstrained one %v", capped.PredictedMean, free.PredictedMean)
	}
	cappedLoads, err := sys.PredictSiteLoads(capped.Config, loads)
	if err != nil {
		t.Fatal(err)
	}
	for site, l := range cappedLoads {
		if l > caps[site]+1e-9 {
			t.Errorf("site %d load %.0f exceeds cap %.0f", site, l, caps[site])
		}
	}
}

func TestPredictSiteLoadsWeighted(t *testing.T) {
	sys := getSystem(t)
	cfg := Config{1, 6}
	uniform, err := sys.PredictSiteLoads(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var totalU float64
	for _, l := range uniform {
		totalU += l
	}
	predicted, _ := sys.PredictCatchments(cfg)
	if int(totalU) != len(predicted) {
		t.Errorf("uniform loads sum %.0f != %d predicted clients", totalU, len(predicted))
	}
	// Doubling every client's load doubles every site's.
	loads := map[Client]float64{}
	for c := range predicted {
		loads[c] = 2
	}
	doubled, err := sys.PredictSiteLoads(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	for site, l := range doubled {
		if l != 2*uniform[site] {
			t.Errorf("site %d: %v != 2×%v", site, l, uniform[site])
		}
	}
}

func TestOptimizeExcluding(t *testing.T) {
	sys := getSystem(t)
	full, err := sys.Optimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the first site of the unrestricted optimum.
	excluded := full.Config[0]
	res, err := sys.OptimizeExcluding(0, 0, excluded)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Config {
		if id == excluded {
			t.Fatalf("excluded site %d present in %v", excluded, res.Config)
		}
	}
	if res.PredictedMean < full.PredictedMean {
		t.Errorf("restricted optimum %v beat the unrestricted one %v", res.PredictedMean, full.PredictedMean)
	}
	if _, err := sys.OptimizeExcluding(0, 0, 99); err == nil {
		t.Error("unknown site excluded without error")
	}
}

func TestOptimizeWithAnytimeMatchesExact(t *testing.T) {
	sys := getSystem(t)
	exact, err := sys.Optimize(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A time budget routes the same search to the anytime solver; on the
	// paper-scale testbed it must land on the same optimum.
	any, err := sys.OptimizeWith(OptimizeOptions{
		K: 6, TimeBudget: 2 * time.Second, Restarts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if any.PredictedMean != exact.PredictedMean {
		t.Errorf("anytime mean %v, exact optimum %v", any.PredictedMean, exact.PredictedMean)
	}
	if len(any.Config) != 6 {
		t.Errorf("anytime config %v, want 6 sites", any.Config)
	}
	if any.Evals == 0 {
		t.Error("anytime path reported no evals")
	}

	// Exclusion carries through the anytime path too.
	excl, err := sys.OptimizeWith(OptimizeOptions{
		K: 6, TimeBudget: time.Second, Exclude: []int{any.Config[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range excl.Config {
		if id == any.Config[0] {
			t.Errorf("excluded site %d present in %v", id, excl.Config)
		}
	}
}

func TestWarmOptimizerAcrossGenerations(t *testing.T) {
	sys := getSystem(t)
	snap := sys.CurrentSnapshot()
	w := NewWarmOptimizer()
	opts := OptimizeOptions{K: 6, TimeBudget: time.Second}
	res1, raw1, err := w.Reoptimize(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if raw1.Patched != 0 {
		t.Errorf("cold solve reported %d patched clients", raw1.Patched)
	}
	if w.Gen() != snap.Gen {
		t.Errorf("gen %d, want %d", w.Gen(), snap.Gen)
	}
	// Same generation: continue refining; result stays at the optimum.
	res2, _, err := w.Reoptimize(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PredictedMean != res1.PredictedMean {
		t.Errorf("same-gen re-solve moved the optimum: %v vs %v", res2.PredictedMean, res1.PredictedMean)
	}
	// Republishing the identical campaign bumps the generation with zero
	// client churn: the warm path patches nothing and keeps the optimum.
	snap2 := sys.InstallCampaign(snap.Pred, snap.RTT, snap.AnnOrder, snap.Experiments, snap.Quarantined)
	res3, raw3, err := w.Reoptimize(snap2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if raw3.Patched != 0 {
		t.Errorf("no-churn republish patched %d clients", raw3.Patched)
	}
	if res3.PredictedMean != res1.PredictedMean {
		t.Errorf("no-churn republish moved the optimum: %v vs %v", res3.PredictedMean, res1.PredictedMean)
	}
	if w.Gen() != snap2.Gen {
		t.Errorf("gen %d, want %d", w.Gen(), snap2.Gen)
	}
}
