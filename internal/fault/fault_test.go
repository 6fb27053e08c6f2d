package fault

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"anyopt/internal/topology"
)

func harsh(t *testing.T, seed int64) *Config {
	t.Helper()
	c, err := Scenario("harsh", seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drops records n probe-loss decisions for one target.
func drops(inj *Injector, target uint64, n int) []bool {
	inj.BeginTarget(target)
	out := make([]bool, n)
	for i := range out {
		out[i] = inj.DropProbe()
	}
	return out
}

// TestBeginTargetPurity checks that a target's probe-loss draws depend only
// on (seed, nonce, attempt, target): probing other targets first, or not at
// all, leaves them unchanged.
func TestBeginTargetPurity(t *testing.T) {
	cfg := harsh(t, 3)
	targets := []uint64{7, 1 << 33, 0, 64512, 9}
	want := make(map[uint64][]bool)
	for _, tg := range targets {
		want[tg] = drops(cfg.Injector(11, 1, nil), tg, 200)
	}
	shared := cfg.Injector(11, 1, nil)
	for i := len(targets) - 1; i >= 0; i-- {
		tg := targets[i]
		if got := drops(shared, tg, 200); !slices.Equal(got, want[tg]) {
			t.Fatalf("target %d: draws depend on the targets probed before it", tg)
		}
	}
	// A different attempt re-rolls the stream, so quorum retries are not
	// replays of the faulted attempt.
	if slices.Equal(drops(cfg.Injector(11, 2, nil), 7, 200), want[7]) {
		t.Error("attempt 2 replays attempt 1's probe-loss draws")
	}
}

// classDraws records every fault class's decisions for one injector, after
// burning extra draws on the classes in burn.
func classDraws(inj *Injector, links []topology.LinkID, burn map[string]int) map[string]any {
	for i := 0; i < burn["update"]; i++ {
		inj.UpdateFate(links[0], 1, 0)
	}
	for i := 0; i < burn["probe"]; i++ {
		inj.DropProbe()
	}
	out := map[string]any{}
	if burn["plan"] == 0 {
		out["plan"] = inj.FlapPlan(links)
	}
	var upd []time.Duration
	for i := 0; i < 300; i++ {
		drop, extra := inj.UpdateFate(links[i%len(links)], topology.ASN(i), 0)
		if drop {
			extra = -1
		}
		upd = append(upd, extra)
	}
	var probe []bool
	for i := 0; i < 300; i++ {
		probe = append(probe, inj.DropProbe())
	}
	if burn["update"] == 0 {
		out["update"] = upd
	}
	if burn["probe"] == 0 {
		out["probe"] = probe
	}
	return out
}

// TestClassStreamIndependence checks that extra draws on one fault class
// never shift another class's decisions.
func TestClassStreamIndependence(t *testing.T) {
	cfg := harsh(t, 5)
	links := []topology.LinkID{3, 8, 13, 21}
	base := classDraws(cfg.Injector(4, 0, nil), links, nil)
	for _, class := range []string{"update", "probe", "plan"} {
		burn := map[string]int{class: 97}
		if class == "plan" {
			// FlapPlan is drawn once per attempt; skipping it is the burn.
			burn[class] = 1
		}
		got := classDraws(cfg.Injector(4, 0, nil), links, burn)
		for k, v := range got {
			if !reflect.DeepEqual(v, base[k]) {
				t.Errorf("drawing extra %s decisions changed the %s stream", class, k)
			}
		}
	}
}

// TestInjectorTraceDeterminism checks that one (seed, nonce, attempt) always
// yields the same failure trace, and that a disabled config injects nothing.
func TestInjectorTraceDeterminism(t *testing.T) {
	links := []topology.LinkID{1, 2, 3}
	run := func(cfg *Config) []string {
		var tr Trace
		inj := cfg.Injector(9, 0, &tr)
		classDraws(inj, links, nil)
		drops(inj, 42, 50)
		return tr.Entries()
	}
	a, b := run(harsh(t, 1)), run(harsh(t, 1))
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("harsh traces differ or are empty: %d vs %d lines", len(a), len(b))
	}
	if (&Config{Seed: 1}).Injector(9, 0, nil) != nil {
		t.Error("a zero-rate config built an injector")
	}
}

// TestValidateChurnRejectsWholeBatch checks that one bad event rejects the
// batch wherever it sits, and that validation never touches the topology.
func TestValidateChurnRejectsWholeBatch(t *testing.T) {
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	good := PlanChurn(topo, 1, 8, nil)
	if err := ValidateChurn(topo, good); err != nil {
		t.Fatalf("planned churn rejected: %v", err)
	}
	// A stub's self-loop is never a link.
	stub := topo.Targets[0].AS
	bad := []ChurnEvent{
		{Kind: ChurnLinkCost, Link: -1, NewDelay: time.Millisecond},
		{Kind: ChurnLinkCost, Link: topo.Links[0].ID, NewDelay: 0},
		{Kind: ChurnLinkDown, Link: 1 << 30},
		{Kind: ChurnLinkUp, Link: 1 << 30},
		{Kind: ChurnPolicyFlip, AS: 1 << 30, Neighbor: 1},
		{Kind: ChurnPolicyFlip, AS: stub, Neighbor: stub},
		{Kind: ChurnKind(99)},
	}
	before := topoState(topo)
	for _, ev := range bad {
		for _, at := range []int{0, len(good) / 2, len(good)} {
			batch := slices.Insert(slices.Clone(good), at, ev)
			if err := ValidateChurn(topo, batch); err == nil {
				t.Errorf("batch with %+v at %d accepted", ev, at)
			}
		}
	}
	if !reflect.DeepEqual(topoState(topo), before) {
		t.Error("ValidateChurn mutated the topology")
	}
}

// topoState captures the topology state churn can change.
func topoState(topo *topology.Topology) []any {
	var out []any
	for _, l := range topo.Links {
		out = append(out, l.Delay, topo.LinkIsDown(l.ID))
	}
	prefs := make(map[topology.ASN]map[topology.ASN]int, len(topo.ASes))
	for asn, a := range topo.ASes {
		prefs[asn] = make(map[topology.ASN]int, len(a.LocalPrefDelta))
		for n, d := range a.LocalPrefDelta {
			prefs[asn][n] = d
		}
	}
	return append(out, prefs)
}
