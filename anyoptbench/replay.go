package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/bgp"
	"anyopt/internal/campaign"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/probe"
	"anyopt/internal/reconcile"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// The traced replay feeds a workload's seeded inputs through the layers'
// public functions in-process, with a span around each call made from this
// file. Nothing inside the program is instrumented. Every workload replays
// the whole pipeline at its own scale, so every per-layer metric has a
// value on every workload; the workload's inputs decide what the pipeline
// is fed (read requests, churn events) and which operations the
// discovery-layer figures are read from (layers.json records which layer
// metrics each workload's end-to-end figures depend on).

// readReq is one read request: a predict (cfg) or an optimize (opt).
type readReq struct {
	cfg anyopt.Config
	opt *optRequest
}

func (q readReq) path() string {
	if q.opt != nil {
		return q.opt.path()
	}
	return "/v1/predict?config=" + configKey(q.cfg)
}

type replayInput struct {
	scale   string
	fixture []byte
	reads   []readReq
	events  []churnEvent
}

// traceFromE2E carries per-layer figures only the end-to-end phase sees.
type traceFromE2E struct {
	// journalWriteMB is anyoptd's wchar delta per job; 0 means take the
	// replay campaign's own journal writes.
	journalWriteMB float64
	// genLate is how late each request was sent after it fell due.
	genLate samples
}

// replayCounters are counts the layers report; they are collected with
// spans on or off.
type replayCounters struct {
	campaignExperiments int
	campaignProbes      uint64
	campaignWorkers     int
	poolHits, poolMiss  uint64
	journalWriteMB      float64
	campaignDigest      string

	netsimEvents []float64

	totalOrderClients int
	subsets           []float64

	coneClients      []float64
	repairExps       []float64
	repairProbes     []float64
	probedFrac       []float64
	repairPoolHits   uint64
	repairPoolMisses uint64

	// repairChecks counts the replayed repairs compared with
	// reconcile.Repair; repairDrift describes each that differed.
	// verifyWall is the time the comparisons took, which is not part of the
	// pass.
	repairChecks int
	repairDrift  []string
	verifyWall   time.Duration
}

// timedJournal wraps the campaign checkpoint: the interval from an
// experiment's journal Lookup to its Record is the experiment's span, and
// each Record is a campaign.journal_record span.
type timedJournal struct {
	ck     *campaign.Checkpoint
	tr     *tracer
	op     string
	mu     sync.Mutex
	parent int
	open   map[uint64]int
}

func (j *timedJournal) setParent(id int) {
	j.mu.Lock()
	j.parent = id
	j.mu.Unlock()
}

func (j *timedJournal) Lookup(nonce uint64) (discovery.JournalEntry, bool) {
	j.mu.Lock()
	parent := j.parent
	j.mu.Unlock()
	id := j.tr.begin(j.op, "discovery.experiment", parent)
	j.mu.Lock()
	j.open[nonce] = id
	j.mu.Unlock()
	return j.ck.Lookup(nonce)
}

func (j *timedJournal) Record(nonce uint64, ent discovery.JournalEntry) error {
	j.mu.Lock()
	id, parent := j.open[nonce], j.parent
	delete(j.open, nonce)
	j.mu.Unlock()
	j.tr.end(id)
	rid := j.tr.begin(j.op, "campaign.journal_record", parent)
	err := j.ck.Record(nonce, ent)
	j.tr.end(rid)
	return err
}

// measured is one discovery campaign's outputs.
type measured struct {
	rtt   *discovery.RTTTable
	prov  *prefs.Store
	sites map[topology.ASN]*prefs.Store
}

// measurePhases runs predict.NewPredictor's three discovery phases call by
// call, each in a span under parent; setParent (optional) learns the phase
// span so journaled experiments nest under it.
func measurePhases(tr *tracer, op string, parent int, d *discovery.Discovery, tb *testbed.Testbed, useRTT bool, setParent func(int)) (measured, error) {
	out := measured{sites: make(map[topology.ASN]*prefs.Store)}
	phase := func(name string, fn func() error) error {
		id := tr.begin(op, name, parent)
		if setParent != nil {
			setParent(id)
		}
		err := fn()
		tr.end(id)
		return err
	}
	allSites := make([]int, len(tb.Sites))
	for i, s := range tb.Sites {
		allSites[i] = s.ID
	}
	var err error
	if err = phase("discovery.rtts", func() error { out.rtt, err = d.MeasureRTTs(allSites); return err }); err != nil {
		return out, err
	}
	if err = phase("discovery.provider_prefs", func() error { out.prov, err = d.ProviderPrefs(d.Representatives()); return err }); err != nil {
		return out, err
	}
	err = phase("discovery.site_prefs", func() error {
		if useRTT {
			return nil
		}
		for _, p := range tb.TransitProviders() {
			if len(tb.SitesOfTransit(p)) < 2 {
				continue
			}
			st, err := d.SitePrefs(p)
			if err != nil {
				return err
			}
			out.sites[p] = st
		}
		return nil
	})
	if err == nil {
		err = d.Err()
	}
	return out, err
}

// replayPass runs the whole pipeline once. dir holds the pass's journals.
// With verify, every replayed repair is also compared with reconcile.Repair.
func replayPass(tr *tracer, in replayInput, seed int64, dir string, verify bool) (*replayCounters, error) {
	cnt := &replayCounters{}
	opts := scaleOptions(in.scale)
	var (
		topo *topology.Topology
		tb   *testbed.Testbed
		err  error
	)
	tr.timed("setup", "topology.generate", 0, func() { topo, err = topology.Generate(opts.Topology) })
	if err != nil {
		return nil, err
	}
	tr.timed("setup", "testbed.new", 0, func() { tb, err = testbed.New(topo, opts.Testbed) })
	if err != nil {
		return nil, err
	}

	// Measure and model: the campaign a discovery job runs.
	ck, err := campaign.NewCheckpoint(filepath.Join(dir, "campaign.ckpt"))
	if err != nil {
		return nil, err
	}
	disc := discovery.New(tb, opts.Discovery)
	tj := &timedJournal{ck: ck, tr: tr, op: "campaign", open: make(map[uint64]int)}
	disc.SetJournal(tj)
	w0, err := procWchar(0)
	if err != nil {
		return nil, err
	}
	m, err := measurePhases(tr, "campaign", 0, disc, tb, opts.UseRTTHeuristic, tj.setParent)
	if err != nil {
		return nil, fmt.Errorf("replay campaign: %w", err)
	}
	var order []prefs.Item
	tr.timed("campaign", "prefs.best_order", 0, func() { order, _ = m.prov.BestAnnouncementOrder(7) })
	w1, err := procWchar(0)
	if err != nil {
		return nil, err
	}
	cnt.campaignExperiments = disc.Experiments
	cnt.campaignProbes = disc.ProbesSent
	cnt.campaignWorkers = disc.Workers()
	cnt.poolHits, cnt.poolMiss = disc.SimPoolStats()
	cnt.journalWriteMB = float64(w1-w0) / (1 << 20)
	var buf bytes.Buffer
	err = campaign.SaveSnapshot(&buf, &anyopt.Snapshot{
		TB:          tb,
		Pred:        &predict.Predictor{TB: tb, Providers: m.prov, Sites: m.sites, RTT: m.rtt, UseRTTHeuristic: opts.UseRTTHeuristic},
		RTT:         m.rtt,
		AnnOrder:    order,
		Experiments: disc.Experiments,
		Quarantined: disc.Quarantined(),
	})
	if err != nil {
		return nil, err
	}
	cnt.campaignDigest = digest(buf.Bytes())

	replayExperiments(tr, cnt, tb, opts.Discovery, seed)

	// Serve: load the workload's campaign and answer its reads.
	sys, err := anyopt.New(opts)
	if err != nil {
		return nil, err
	}
	tr.timed("load", "campaign.load", 0, func() { err = campaign.Load(bytes.NewReader(in.fixture), sys) })
	if err != nil {
		return nil, err
	}
	if err := replayReads(tr, cnt, sys, in.reads); err != nil {
		return nil, err
	}
	if err := replayChurn(tr, cnt, sys, in.events, seed, dir, verify); err != nil {
		return nil, err
	}
	return cnt, nil
}

// replayExperiments runs one experiment of each campaign kind directly on
// the BGP simulator and the prober: Sim.Reset/Announce, Sim.Converge, then
// per target Prober.BeginTarget and CatchmentRetry (pair kinds) or RTT
// (singletons), as discovery's experiments do.
func replayExperiments(tr *tracer, cnt *replayCounters, tb *testbed.Testbed, dcfg discovery.Config, seed int64) {
	type expKind struct {
		name  string
		sites []int
		// simultaneous announcements leave arrival order to jitter.
		simultaneous bool
	}
	providers := tb.TransitProviders()
	reps := discovery.New(tb, dcfg).Representatives()
	pick := int(uint64(seed) % uint64(len(tb.Sites)))
	kinds := []expKind{
		{name: "singleton", sites: []int{tb.Sites[pick].ID}},
		{name: "provider_pair", sites: []int{reps[providers[pick%len(providers)]], reps[providers[(pick+1)%len(providers)]]}},
	}
	for _, p := range providers {
		if ss := tb.SitesOfTransit(p); len(ss) >= 2 {
			kinds = append(kinds, expKind{name: "site_pair", sites: []int{ss[0].ID, ss[1].ID}, simultaneous: true})
			break
		}
	}
	var sim *bgp.Sim
	for k, kind := range kinds {
		op := "experiment-" + kind.name
		cfg := dcfg.SimCfg
		cfg.JitterNonce = uint64(seed)*131 + uint64(k)
		tr.timed(op, "bgp.reset", 0, func() {
			if sim == nil {
				sim = bgp.New(tb.Topo, cfg)
			} else {
				sim.Reset(cfg)
			}
			for _, id := range tb.Topo.DownLinks() {
				sim.FailLink(id)
			}
		})
		tr.timed(op, "bgp.announce", 0, func() {
			for rank, id := range kind.sites {
				link := tb.Site(id).TransitLink
				if kind.simultaneous {
					sim.Announce(0, tb.Origin, link, 0)
					continue
				}
				sim.Engine.After(time.Duration(rank)*dcfg.Spacing, func() { sim.Announce(0, tb.Origin, link, 0) })
			}
		})
		steps0 := sim.Engine.Steps()
		tr.timed(op, "bgp.converge", 0, func() { sim.Converge() })
		cnt.netsimEvents = append(cnt.netsimEvents, float64(sim.Engine.Steps()-steps0))

		var noise *probe.NoiseModel
		if dcfg.Noisy {
			noise = probe.DefaultNoise(dcfg.NoiseSeed + int64(cfg.JitterNonce)*7919)
		}
		p := probe.New(probe.NewSimFabric(tb, sim, 0, noise), probe.DefaultConfig(tb.OrchAddr, tb.AnycastAddrs[0]), sim.Engine.Now())
		site := tb.Site(kind.sites[0])
		for _, tg := range tb.Topo.Targets {
			id := tr.begin(op, "probe.target", 0)
			tr.timed(op, "probe.begin_target", id, func() { p.BeginTarget(uint64(tg.AS)) })
			if kind.name == "singleton" {
				tr.timed(op, "probe.rtt", id, func() { p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr) })
			} else {
				tr.timed(op, "probe.catchment", id, func() { p.CatchmentRetry(tg.Addr, 3) })
			}
			tr.end(id)
		}
	}
}

// replayReads answers each read through the in-process API handler and
// then through the Snapshot calls it wraps, so the handler's own cost
// (parsing, JSON) is the difference.
func replayReads(tr *tracer, cnt *replayCounters, sys *anyopt.System, reads []readReq) error {
	snap := sys.CurrentSnapshot()
	h := api.NewServer(sys).Handler()
	clients := snap.Pred.Providers.Clients()
	cnt.totalOrderClients = len(clients)
	tr.timed("read-order", "prefs.total_order", 0, func() {
		for _, c := range clients {
			snap.Pred.Providers.Get(c).TotalOrder(snap.AnnOrder)
		}
	})
	for i, q := range reads {
		op := fmt.Sprintf("read-%d", i)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", q.path(), nil)
		if q.opt == nil {
			handler := func() { tr.timed(op, "api.handler.predict", 0, func() { h.ServeHTTP(rec, req) }) }
			direct := func() {
				tr.timed(op, "predict.all", 0, func() { snap.PredictCatchments(q.cfg) })
				tr.timed(op, "predict.mean_rtt", 0, func() { snap.PredictMeanRTT(q.cfg) })
			}
			// Every other request calls the Snapshot first, so the side that
			// runs second on warm caches is each side half of the time.
			if i%2 == 0 {
				handler()
				direct()
			} else {
				direct()
				handler()
			}
		} else {
			tr.timed(op, "api.handler.optimize", 0, func() { h.ServeHTTP(rec, req) })
		}
		if rec.Code != 200 {
			return fmt.Errorf("replay %s: status %d %s", q.path(), rec.Code, rec.Body.String())
		}
		if q.opt == nil {
			continue
		}
		tr.timed(op, "predict.build_instance", 0, func() { snap.Pred.BuildInstance(snap.AnnOrder) })
		var res anyopt.OptimizeResult
		var err error
		tr.timed(op, "splpo.optimize", 0, func() {
			if q.opt.Exclude != 0 {
				res, err = snap.OptimizeExcluding(q.opt.K, 0, q.opt.Exclude)
			} else {
				res, err = snap.Optimize(q.opt.K, 0)
			}
		})
		if err != nil {
			return fmt.Errorf("replay %s: %w", q.path(), err)
		}
		cnt.subsets = append(cnt.subsets, float64(res.SubsetsEvaluated))
	}
	return nil
}

// replayChurn applies each churn event and repairs its cone the way
// anyoptd's reconciler does, with reconcile.Repair's steps replayed call by
// call. When every event leaves an empty cone, further seeded events are
// drawn until one repair has run, so every repair-layer figure is measured.
func replayChurn(tr *tracer, cnt *replayCounters, sys *anyopt.System, events []churnEvent, seed int64, dir string, verify bool) error {
	walker := reconcile.NewCatchmentWalker(sys.TB, sys.Options().Discovery.SimCfg)
	ck, err := campaign.NewCheckpoint(filepath.Join(dir, "reconcile.ckpt"))
	if err != nil {
		return err
	}
	warm := anyopt.NewWarmOptimizer()
	extra := makeChurnSchedule(seed+1, 8)
	for i := 0; i < len(events) || (len(cnt.probedFrac) == 0 && i < len(events)+len(extra)); i++ {
		ev := extraOr(events, extra, i)
		op := fmt.Sprintf("churn-%d", i)
		planned := ev.Events
		if planned == nil {
			kind, err := fault.ChurnKindByName(ev.Kind)
			if err != nil {
				return err
			}
			planned = fault.PlanChurn(sys.Topo, ev.Seed, 1, []fault.ChurnKind{kind})
		}
		var delta *fault.RoutingDelta
		tr.timed(op, "fault.apply_churn", 0, func() {
			if err = fault.ValidateChurn(sys.Topo, planned); err == nil {
				delta, err = fault.ApplyChurn(sys.Topo, planned)
			}
		})
		if err != nil {
			return fmt.Errorf("replay churn %d: %w", i, err)
		}
		var cone *reconcile.Cone
		tr.timed(op, "reconcile.cone", 0, func() {
			cone = reconcile.StructuralCone(sys.Topo, sys.TB.Origin, delta)
			walker.ExpandCone(cone)
		})
		cnt.coneClients = append(cnt.coneClients, float64(len(cone.Clients)))
		cur := sys.CurrentSnapshot()
		marked := sys.PatchCampaign(cur.Pred, cur.RTT, cur.AnnOrder, cur.Experiments, cur.Quarantined,
			reconcile.MarkStale(cur.StaleRows, cone, cur.Gen))
		raw, err := json.Marshal(planned)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("churn-%d", marked.Gen)
		tr.timed(op, "campaign.patch_record", 0, func() {
			err = ck.RecordPatchPending(id, campaign.PatchRecord{Gen: marked.Gen, Clients: cone.SortedClients(), Events: raw})
		})
		if err != nil {
			return err
		}
		if len(cone.Clients) > 0 {
			if err := replayRepair(tr, cnt, op, sys, marked, cone, walker, warm, verify); err != nil {
				return fmt.Errorf("replay churn %d: %w", i, err)
			}
		}
		tr.timed(op, "campaign.patch_record", 0, func() { err = ck.RecordPatchDone(id) })
		if err != nil {
			return err
		}
	}
	return nil
}

func extraOr(events, extra []churnEvent, i int) churnEvent {
	if i < len(events) {
		return events[i]
	}
	return extra[i-len(events)]
}

// replayRepair is reconcile.Repair plus the reconciler's commit, step by
// step: a filtered re-measurement, the row patches, the announcement order,
// publication, the walker refresh and the warm re-optimization. With
// verify, reconcile.Repair itself then runs, untimed, on the same snapshot
// and cone, and its result must export the same campaign as the replay's.
func replayRepair(tr *tracer, cnt *replayCounters, op string, sys *anyopt.System, snap *anyopt.Snapshot, cone *reconcile.Cone, walker *reconcile.CatchmentWalker, warm *anyopt.WarmOptimizer, verify bool) error {
	repairID := tr.begin(op, "reconcile.repair", 0)
	dcfg := sys.Options().Discovery
	dcfg.TargetFilter = make(map[prefs.Client]bool, len(cone.Clients))
	for c := range cone.Clients {
		dcfg.TargetFilter[c] = true
	}
	d := discovery.New(sys.TB, dcfg)
	d.RestoreQuarantine(snap.Quarantined)
	m, err := measurePhases(tr, op, repairID, d, sys.TB, snap.Pred.UseRTTHeuristic, nil)
	if err != nil {
		tr.end(repairID)
		return err
	}
	var (
		provs *prefs.Store
		sites = make(map[topology.ASN]*prefs.Store, len(snap.Pred.Sites))
		rtt   *discovery.RTTTable
		order []prefs.Item
	)
	tr.timed(op, "prefs.patch_clients", repairID, func() {
		if provs, err = snap.Pred.Providers.PatchClients(m.prov, cone.Contains); err != nil {
			return
		}
		for p, base := range snap.Pred.Sites {
			if base == nil || m.sites[p] == nil {
				sites[p] = base
				continue
			}
			if sites[p], err = base.PatchClients(m.sites[p], cone.Contains); err != nil {
				return
			}
		}
	})
	if err != nil {
		tr.end(repairID)
		return err
	}
	tr.timed(op, "discovery.rtt_patch", repairID, func() { rtt = snap.RTT.Patch(m.rtt, cone.Contains) })
	tr.timed(op, "prefs.best_order", repairID, func() { order, _ = provs.BestAnnouncementOrder(7) })
	tr.end(repairID)

	probed, total := d.FilteredTargets()
	cnt.probedFrac = append(cnt.probedFrac, float64(probed)/float64(total))
	cnt.repairExps = append(cnt.repairExps, float64(d.Experiments))
	cnt.repairProbes = append(cnt.repairProbes, float64(d.ProbesSent))
	h, mi := d.SimPoolStats()
	cnt.repairPoolHits += h
	cnt.repairPoolMisses += mi

	pred := &predict.Predictor{TB: sys.TB, Providers: provs, Sites: sites, RTT: rtt, UseRTTHeuristic: snap.Pred.UseRTTHeuristic}
	if verify {
		t0 := time.Now()
		err := checkRepair(cnt, op, sys, snap, cone, &anyopt.Snapshot{
			TB: sys.TB, Pred: pred, RTT: rtt, AnnOrder: order, Experiments: d.Experiments, Quarantined: d.Quarantined(),
		})
		cnt.verifyWall += time.Since(t0)
		if err != nil {
			return err
		}
	}
	cur := sys.CurrentSnapshot()
	patched := sys.PatchCampaign(pred, rtt, order, d.Experiments, d.Quarantined(), reconcile.ClearRepaired(cur.StaleRows, cone, snap.Gen))
	tr.timed(op, "reconcile.walker_refresh", 0, walker.Refresh)
	tr.timed(op, "splpo.warm_reoptimize", 0, func() { _, _, err = warm.Reoptimize(patched, anyopt.OptimizeOptions{}) })
	return err
}

// checkRepair runs reconcile.Repair on the snapshot and cone the replay has
// just repaired step by step and records whether the program's repair
// exports the same campaign as the replayed one, so the replayed steps
// cannot drift from the program's unnoticed.
func checkRepair(cnt *replayCounters, op string, sys *anyopt.System, snap *anyopt.Snapshot, cone *reconcile.Cone, replayed *anyopt.Snapshot) error {
	res, err := reconcile.Repair(sys.TB, snap, cone, reconcile.RepairConfig{Discovery: sys.Options().Discovery})
	if err != nil {
		return fmt.Errorf("%s: reconcile.Repair: %w", op, err)
	}
	var want, got bytes.Buffer
	err = campaign.SaveSnapshot(&want, &anyopt.Snapshot{
		TB: sys.TB, Pred: res.Pred, RTT: res.RTT, AnnOrder: res.AnnOrder, Experiments: res.Experiments, Quarantined: res.Quarantined,
	})
	if err != nil {
		return err
	}
	if err := campaign.SaveSnapshot(&got, replayed); err != nil {
		return err
	}
	cnt.repairChecks++
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		cnt.repairDrift = append(cnt.repairDrift, fmt.Sprintf("%s: the replayed repair exports %s, reconcile.Repair %s", op, digest(got.Bytes()), digest(want.Bytes())))
	}
	return nil
}

// opKind maps an op id to its kind: "churn-3" -> "churn".
func opKind(op string) string {
	kind, _, _ := strings.Cut(op, "-")
	return kind
}

// traced finishes a --trace 1 run: it measures what the loopback socket
// path adds to the replay's predicts, runs the replay with spans off and
// then on, and reports every per-layer metric.
func (r *run) traced(c *client, in replayInput, e2e traceFromE2E) error {
	loop, err := r.loopbackMs(c, in)
	if err != nil {
		return err
	}

	pass := func(on bool, i int, verify bool) (*tracer, *replayCounters, time.Duration, error) {
		dir := filepath.Join(r.rundir, fmt.Sprintf("replay-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, 0, err
		}
		tr := newTracer(on)
		t0 := time.Now()
		cnt, err := replayPass(tr, in, r.seed, dir, verify)
		if err != nil {
			return nil, nil, 0, err
		}
		return tr, cnt, time.Since(t0) - cnt.verifyWall, nil
	}
	// A first, untimed pass warms the process up; then the passes run on,
	// off, off, on, so warm-up and drift fall equally on both sides. The
	// figures come from the last traced pass, which also checks its repairs
	// against reconcile.Repair (outside its wall time).
	var (
		tr              *tracer
		cnt             *replayCounters
		onWall, offWall time.Duration
	)
	for i, on := range []bool{false, true, false, false, true} {
		t, c, wall, err := pass(on, i, i == 4)
		if err != nil {
			return err
		}
		switch {
		case i == 0:
		case on:
			tr, cnt, onWall = t, c, onWall+wall
		default:
			offWall += wall
		}
	}
	r.check("replay", cnt.campaignDigest == digest(in.fixture),
		"replay campaign digest %s differs from anyoptd's export %s", cnt.campaignDigest, digest(in.fixture))
	r.check("replay", cnt.repairChecks > 0 && len(cnt.repairDrift) == 0,
		"%d replayed repairs checked against reconcile.Repair, differences: %v", cnt.repairChecks, cnt.repairDrift)
	r.printf("traced replay: %d replayed repairs checked against reconcile.Repair, %d differed", cnt.repairChecks, len(cnt.repairDrift))
	spans := tr.closed()
	tracePath := filepath.Join(r.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.workload, r.seed))
	if err := writeJSONL(tracePath, spans); err != nil {
		return err
	}
	stats := aggregate(spans, opKind)
	r.printf("traced replay: %d spans written to %s", len(spans), tracePath)
	r.printf("traced replay wall over two passes each: spans off %.3fs, spans on %.3fs, overhead %.2f%%", offWall.Seconds(), onWall.Seconds(), 100*(onWall.Seconds()/offWall.Seconds()-1))
	for _, line := range formatLayerTable(stats) {
		r.printf("%s", line)
	}
	return r.layerMetrics(stats, cnt, e2e, loop, onWall, offWall)
}

// loopbackMs times each predict of the replay over loopback HTTP against the
// running anyoptd and, right after, through an in-process API handler
// serving the same campaign (anyoptd's current export), and returns the
// median of the paired differences. The first of three rounds warms both
// sides. The two sides run in different processes, so the figure is what
// the socket path and the daemon's own state add, and noise can make it
// slightly negative.
func (r *run) loopbackMs(c *client, in replayInput) (float64, error) {
	exp, err := c.do("GET", "/v1/campaign", nil)
	if err != nil || !exp.ok() {
		return 0, fmt.Errorf("exporting anyoptd's campaign: %v status %d", err, exp.status)
	}
	sys, err := newSystem(in.scale)
	if err != nil {
		return 0, err
	}
	if err := campaign.Load(bytes.NewReader(exp.body), sys); err != nil {
		return 0, err
	}
	h := api.NewServer(sys).Handler()
	var remote, local, diff samples
	for round := 0; round < 3; round++ {
		for _, q := range in.reads {
			if q.opt != nil {
				continue
			}
			rep, err := c.do("GET", q.path(), nil)
			if !r.check("loopback", err == nil && rep.ok(), "loopback %s: %v status %d", q.path(), err, rep.status) {
				continue
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", q.path(), nil)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			inproc := time.Since(t0)
			if !r.check("loopback", rec.Code == 200 && bytes.Equal(rec.Body.Bytes(), rep.body),
				"loopback %s: anyoptd replied %s, the in-process handler %s", q.path(), rep.body, rec.Body.Bytes()) {
				continue
			}
			if round > 0 {
				remote = append(remote, ms(rep.lat))
				local = append(local, ms(inproc))
				diff = append(diff, ms(rep.lat)-ms(inproc))
			}
		}
	}
	r.printf("loopback: predict over HTTP %s; in-process handler %s", summarize(remote, 50), summarize(local, 50))
	return median(diff), nil
}
