package main

import (
	"fmt"
	"time"
)

// layerUnits lists the per-layer metrics a --trace 1 run reports. layers.json
// records, for each, the layer, the public call it times and the end-to-end
// figure it should move.
var layerUnits = map[string]string{
	"topology.generate_ms":        "ms",
	"testbed.new_ms":              "ms",
	"campaign.load_ms":            "ms",
	"campaign.journal_record_ms":  "ms",
	"campaign.journal_write_mb":   "MB",
	"campaign.patch_record_ms":    "ms",
	"discovery.rtts_ms":           "ms",
	"discovery.provider_prefs_ms": "ms",
	"discovery.site_prefs_ms":     "ms",
	"discovery.experiment_ms":     "ms",
	"discovery.experiments":       "count",
	"discovery.probes_sent":       "count",
	"discovery.probed_frac":       "ratio",
	"discovery.sim_pool_hit_frac": "ratio",
	"exec.busy_frac":              "ratio",
	"bgp.converge_ms":             "ms",
	"netsim.events":               "count",
	"probe.target_us":             "us",
	"probe.begin_target_us":       "us",
	"prefs.best_order_ms":         "ms",
	"prefs.patch_clients_ms":      "ms",
	"prefs.total_order_us":        "us",
	"predict.all_ms":              "ms",
	"predict.mean_rtt_ms":         "ms",
	"predict.build_instance_ms":   "ms",
	"splpo.solve_ms":              "ms",
	"splpo.subsets":               "count",
	"splpo.warm_reoptimize_ms":    "ms",
	"reconcile.cone_ms":           "ms",
	"reconcile.cone_clients":      "count",
	"reconcile.repair_ms":         "ms",
	"reconcile.walker_refresh_ms": "ms",
	"fault.apply_churn_ms":        "ms",
	"api.handler_ms":              "ms",
	"http.loopback_ms":            "ms",
	"bench.gen_late_ms":           "ms",
	"bench.trace_overhead_frac":   "ratio",
}

// layerMetrics turns the traced replay into the per-layer figures.
func (r *run) layerMetrics(stats map[string]*layerStat, cnt *replayCounters, e2e traceFromE2E, loopbackMs float64, onWall, offWall time.Duration) error {
	var missing []string
	meanOf := func(span, kind string) float64 {
		v, ok := stats[span].meanMs(kind)
		if !ok {
			missing = append(missing, span+"@"+kind)
		}
		return v
	}
	set := r.setLayer
	// The churn workload's discovery work is its repairs; every other
	// workload's is the campaign behind its snapshot.
	disc := "campaign"
	if r.workload == "churn" {
		disc = "churn"
	}

	set("topology.generate_ms", meanOf("topology.generate", "setup"))
	set("testbed.new_ms", meanOf("testbed.new", "setup"))
	set("campaign.load_ms", meanOf("campaign.load", "load"))
	set("campaign.journal_record_ms", meanOf("campaign.journal_record", "campaign"))
	writeMB := e2e.journalWriteMB
	if writeMB == 0 {
		writeMB = cnt.journalWriteMB
	}
	set("campaign.journal_write_mb", writeMB)
	set("campaign.patch_record_ms", meanOf("campaign.patch_record", "churn"))

	set("discovery.rtts_ms", meanOf("discovery.rtts", disc))
	set("discovery.provider_prefs_ms", meanOf("discovery.provider_prefs", disc))
	set("discovery.site_prefs_ms", meanOf("discovery.site_prefs", disc))
	set("discovery.experiment_ms", meanOf("discovery.experiment", "campaign"))
	hits, misses := cnt.poolHits, cnt.poolMiss
	if disc == "churn" {
		set("discovery.experiments", mean(cnt.repairExps))
		set("discovery.probes_sent", mean(cnt.repairProbes))
		hits, misses = cnt.repairPoolHits, cnt.repairPoolMisses
	} else {
		set("discovery.experiments", float64(cnt.campaignExperiments))
		set("discovery.probes_sent", float64(cnt.campaignProbes))
	}
	set("discovery.probed_frac", mean(cnt.probedFrac))
	set("discovery.sim_pool_hit_frac", float64(hits)/float64(max(hits+misses, 1)))

	// Busy share of the campaign's executor: experiment time over the
	// phases' wall time times the worker count.
	var expNs, phaseNs int64
	if st := stats["discovery.experiment"]; st != nil {
		for _, d := range st.byOpKind["campaign"] {
			expNs += d
		}
	}
	for _, ph := range []string{"discovery.rtts", "discovery.provider_prefs", "discovery.site_prefs"} {
		if st := stats[ph]; st != nil {
			for _, d := range st.byOpKind["campaign"] {
				phaseNs += d
			}
		}
	}
	set("exec.busy_frac", float64(expNs)/float64(max(phaseNs, 1)*int64(max(cnt.campaignWorkers, 1))))

	set("bgp.converge_ms", meanOf("bgp.converge", "experiment"))
	set("netsim.events", mean(cnt.netsimEvents))
	set("probe.target_us", 1000*meanOf("probe.target", "experiment"))
	set("probe.begin_target_us", 1000*meanOf("probe.begin_target", "experiment"))
	set("prefs.best_order_ms", meanOf("prefs.best_order", disc))
	set("prefs.patch_clients_ms", meanOf("prefs.patch_clients", "churn"))
	set("prefs.total_order_us", 1000*meanOf("prefs.total_order", "read")/float64(max(cnt.totalOrderClients, 1)))

	predAll := meanOf("predict.all", "read")
	predMean := meanOf("predict.mean_rtt", "read")
	build := meanOf("predict.build_instance", "read")
	set("predict.all_ms", predAll)
	set("predict.mean_rtt_ms", predMean)
	set("predict.build_instance_ms", build)
	set("splpo.solve_ms", meanOf("splpo.optimize", "read")-build)
	set("splpo.subsets", mean(cnt.subsets))
	set("splpo.warm_reoptimize_ms", meanOf("splpo.warm_reoptimize", "churn"))

	set("reconcile.cone_ms", meanOf("reconcile.cone", "churn"))
	set("reconcile.cone_clients", mean(cnt.coneClients))
	set("reconcile.repair_ms", meanOf("reconcile.repair", "churn"))
	set("reconcile.walker_refresh_ms", meanOf("reconcile.walker_refresh", "churn"))
	set("fault.apply_churn_ms", meanOf("fault.apply_churn", "churn"))

	// The handler's own cost is its inclusive time minus the Snapshot calls
	// it wraps, paired request by request (each kind has one span per
	// predict, in request order).
	var self samples
	if h, a, m := stats["api.handler.predict"], stats["predict.all"], stats["predict.mean_rtt"]; h != nil && a != nil && m != nil {
		hs, as, mts := h.byOpKind["read"], a.byOpKind["read"], m.byOpKind["read"]
		for i := 0; i < len(hs) && i < len(as) && i < len(mts); i++ {
			self = append(self, float64(hs[i]-as[i]-mts[i])/1e6)
		}
	}
	if len(self) == 0 {
		missing = append(missing, "api.handler.predict@read")
	}
	set("api.handler_ms", median(self))
	set("http.loopback_ms", loopbackMs)
	set("bench.gen_late_ms", summarize(e2e.genLate, 99).Tail)
	set("bench.trace_overhead_frac", onWall.Seconds()/offWall.Seconds()-1)

	if len(missing) > 0 {
		return fmt.Errorf("traced replay recorded no spans for %v", missing)
	}
	return nil
}
