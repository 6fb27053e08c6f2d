package fault_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// campaignDigests pin the test-scale campaign (topology and testbed seed 1,
// fault seed 1) under each fault scenario: sha256 over the failure trace,
// then the provider preferences and the RTT table. The traces exercise every
// fault stream — flaps, update drops and delays, per-target probe loss — so
// a change to any stream's draws, or to how a stream is seeded, moves the
// digest.
var campaignDigests = map[string]string{
	"paper": "2ab882eb0c4f409d6ecff28626d74c4d3b5fee288bfc1169571c940411cec0a7",
	"harsh": "c2704e2fc7cc7bb1f589228371514a3ec64d6e51d7bae848a40d0a65e32b5c5c",
}

func TestScenarioCampaignTracesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fault-injected campaigns")
	}
	for _, name := range []string{"paper", "harsh"} {
		topo, err := topology.Generate(topology.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		tb, err := testbed.New(topo, testbed.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := discovery.DefaultConfig()
		if cfg.Faults, err = fault.Scenario(name, 1); err != nil {
			t.Fatal(err)
		}
		d := discovery.New(tb, cfg)
		pred, rtt, err := predict.NewPredictor(tb, d, false)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, line := range d.FaultLog() {
			fmt.Fprintln(h, line)
		}
		for _, r := range pred.Providers.Dump() {
			fmt.Fprintln(h, r)
		}
		for _, site := range rtt.Sites() {
			rtt.SiteRTTs(site, func(c prefs.Client, ns int64) { fmt.Fprintln(h, site, c, ns) })
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d trace lines, %d experiments, digest %s", name, len(d.FaultLog()), d.Experiments, got)
		if got != campaignDigests[name] {
			t.Errorf("%s campaign digest %s, want %s", name, got, campaignDigests[name])
		}
	}
}
