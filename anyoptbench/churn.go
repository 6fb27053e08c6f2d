package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anyopt/internal/fault"
)

const (
	// churnInterval spaces the open loop's events: about half of the
	// measured single-repair capacity at test scale.
	churnInterval = 1250 * time.Millisecond
	// pollEvery is how often the churn client reads /v1/reconcile while it
	// waits for repairs to commit; it bounds the repair-time resolution.
	pollEvery = 5 * time.Millisecond
	// drainTimeout bounds the wait for outstanding repairs after the last
	// event; an event still unrepaired then counts as failed.
	drainTimeout = 60 * time.Second
	// readerSeedSalt separates the reader's configuration stream from the
	// churn schedule drawn from the same --seed.
	readerSeedSalt = 0x7ead
)

// reconcileStatus is the part of GET /v1/reconcile the churn client reads.
type reconcileStatus struct {
	Health         string `json:"health"`
	Repairs        uint64 `json:"repairs"`
	RepairFailures uint64 `json:"repair_failures"`
	PendingClients int    `json:"pending_clients"`
	InFlight       int    `json:"cones_in_flight"`
	StaleRows      int    `json:"stale_rows"`
	LastProbed     int    `json:"last_probed_targets"`
	LastTotal      int    `json:"last_total_targets"`
}

func (s reconcileStatus) cycles() uint64 { return s.Repairs + s.RepairFailures }

// repairTarget returns the number of finished repair cycles after which the
// cone of a churn event, whose POST has just returned, is repaired. The
// server enqueues the cone before it answers and the churn client is the
// only source of cones, so: a non-empty queue holds the cone and is drained
// by the cycle after the ones in flight; an empty queue with a cycle in
// flight means that cycle took it; neither means it was already repaired.
func repairTarget(st reconcileStatus) uint64 {
	switch {
	case st.PendingClients > 0:
		return st.cycles() + uint64(st.InFlight) + 1
	case st.InFlight > 0:
		return st.cycles() + 1
	default:
		return st.cycles()
	}
}

// dueAt is when the open loop's event i falls due. Repair time is measured
// from it, not from when the event was actually sent, so a stalled
// generator's delay counts against the system.
func dueAt(start time.Time, i int) time.Time {
	return start.Add(time.Duration(i) * churnInterval)
}

// settleRepairs splits outstanding events by a /v1/reconcile reading: those
// whose repair cycle has finished are done (or failed, when any repair
// ended degraded since they were posted); the rest stay outstanding.
func settleRepairs(outstanding []*pendingEvent, st reconcileStatus) (keep, done, failed []*pendingEvent) {
	for _, e := range outstanding {
		switch {
		case st.cycles() < e.target:
			keep = append(keep, e)
		case st.RepairFailures > e.failures0:
			failed = append(failed, e)
		default:
			done = append(done, e)
		}
	}
	return keep, done, failed
}

// pendingEvent is one posted churn event awaiting its repair.
type pendingEvent struct {
	due       time.Time
	target    uint64
	failures0 uint64
}

// churnResponse is the part of a POST /v1/churn reply the client reads.
type churnResponse struct {
	Applied     int `json:"applied"`
	ConeClients int `json:"cone_clients"`
	Events      []struct {
		Kind fault.ChurnKind `json:"kind"`
	} `json:"events"`
}

// runChurn posts seeded churn events to a test-scale anyoptd in an open loop
// (one every churnInterval, timed from each event's due time) while one
// closed-loop reader sends /v1/predict with configurations that never
// repeat. After the last event drains, the healed campaign export must be
// byte-identical to a fresh discovery on the post-churn topology.
//
// Roles: op = repair time from an event's due time until a repair covering
// its cone has committed (repair_s_p50, repair_s_p90); op2 = the reader's
// /v1/predict (predict_ms_p50, predict_ms_p99); throughput = reader rps.
func runChurn(r *run) error {
	fixturePath, fixture, err := r.fixture("test")
	if err != nil {
		return err
	}
	// Plan against a private copy of the topology, which evolves exactly as
	// anyoptd's will; anyoptd receives the explicit events.
	plan, err := newSystem("test")
	if err != nil {
		return err
	}
	nSites := len(plan.TB.Sites)
	n := max(1, int(r.seconds/churnInterval.Seconds()))
	sched, err := planChurn(plan.Topo, plan.TB.Origin, makeChurnSchedule(r.seed, n))
	if err != nil {
		return err
	}

	ckdir := filepath.Join(r.rundir, "ckpt")
	d, setups, err := startMeasured(r.anyoptd, daemonArgs("test", "-campaign", fixturePath, "-checkpoint-dir", ckdir), filepath.Join(r.rundir, "anyoptd.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()

	status := func() (reconcileStatus, error) {
		var st reconcileStatus
		rep, err := c.do("GET", "/v1/reconcile", nil)
		if err != nil || !rep.ok() {
			return st, fmt.Errorf("GET /v1/reconcile: %v status %d", err, rep.status)
		}
		return st, json.Unmarshal(rep.body, &st)
	}
	st0, err := status()
	if err != nil {
		return err
	}

	// The reader: a closed loop of never-repeating predicts.
	var (
		readerMu   sync.Mutex
		readLat    samples
		readFails  []string
		readerStop = make(chan struct{})
		readerDone = make(chan struct{})
	)
	go func() {
		defer close(readerDone)
		u := newUniqueConfigs(r.seed^readerSeedSalt, nSites)
		for i := 0; ; i++ {
			select {
			case <-readerStop:
				return
			default:
			}
			path := "/v1/predict?config=" + configKey(u.next(sizeAt(i, nSites)))
			rep, err := c.do("GET", path, nil)
			var body predictBody
			ok := err == nil && rep.ok() && json.Unmarshal(rep.body, &body) == nil && body.Predictable > 0
			readerMu.Lock()
			if ok {
				readLat = append(readLat, ms(rep.lat))
			} else {
				readFails = append(readFails, fmt.Sprintf("reader %s: %v status %d %s", path, err, rep.status, rep.body))
			}
			readerMu.Unlock()
		}
	}()
	stopReader := func() {
		if readerStop != nil {
			close(readerStop)
			<-readerDone
			readerStop = nil
		}
	}
	defer stopReader()

	cpu0, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	var (
		outstanding []*pendingEvent
		repairs     samples
		late        samples
		cones       []int
		kinds       = map[string]int{}
	)
	poll := func() error {
		st, err := status()
		if err != nil {
			return err
		}
		var done, failed []*pendingEvent
		outstanding, done, failed = settleRepairs(outstanding, st)
		now := time.Now()
		for _, e := range done {
			repairs = append(repairs, ms(now.Sub(e.due)))
		}
		for _, e := range failed {
			r.fail("churn", "churn event due %v: a repair ended degraded (%d repair failures)", e.due.Format(time.StampMilli), st.RepairFailures)
		}
		return nil
	}
	start := time.Now()
	for i, ev := range sched {
		due := dueAt(start, i)
		for time.Until(due) > 0 {
			if err := poll(); err != nil {
				return err
			}
			time.Sleep(min(pollEvery, max(time.Until(due), 0)))
		}
		body, err := json.Marshal(map[string]any{"events": ev.Events})
		if err != nil {
			return err
		}
		rep, err := c.do("POST", "/v1/churn", body)
		late = append(late, ms(rep.sent.Sub(due)))
		r.attempt("churn", 1)
		var cr churnResponse
		if err != nil || !rep.ok() || json.Unmarshal(rep.body, &cr) != nil || cr.Applied != 1 {
			r.fail("churn", "churn %d (%s): %v status %d %s", i, ev.Kind, err, rep.status, rep.body)
			continue
		}
		for _, a := range cr.Events {
			kinds[a.Kind.String()]++
		}
		cones = append(cones, cr.ConeClients)
		if cr.ConeClients == 0 {
			// Nothing went stale; the event is settled when its POST returns.
			repairs = append(repairs, ms(rep.sent.Add(rep.lat).Sub(due)))
			continue
		}
		st, err := status()
		if err != nil {
			return err
		}
		outstanding = append(outstanding, &pendingEvent{due: due, target: repairTarget(st), failures0: st.RepairFailures})
	}
	drainBy := time.Now().Add(drainTimeout)
	for len(outstanding) > 0 && time.Now().Before(drainBy) {
		time.Sleep(pollEvery)
		if err := poll(); err != nil {
			return err
		}
	}
	for _, e := range outstanding {
		r.fail("churn", "churn event due %v: not repaired within %v of the last event", e.due.Format(time.StampMilli), drainTimeout)
	}
	window := time.Since(start)
	stopReader()
	cpu1, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	hwm, err := procHWMmb(d.pid)
	if err != nil {
		return err
	}
	r.attempt("reader", len(readLat)+len(readFails))
	for _, f := range readFails {
		r.fail("reader", "%s", f)
	}

	// Convergence contract: once drained, the healed campaign is exactly
	// what a fresh campaign measures on the post-churn topology.
	st1, err := status()
	if err != nil {
		return err
	}
	r.check("drain", st1.Health == "fresh" && st1.StaleRows == 0 && st1.RepairFailures == 0,
		"after drain: health %s, %d stale rows, %d repair failures", st1.Health, st1.StaleRows, st1.RepairFailures)
	healed, err := c.do("GET", "/v1/campaign", nil)
	if err != nil || !healed.ok() {
		return fmt.Errorf("exporting the healed campaign: %v status %d", err, healed.status)
	}
	if rep, err := c.do("POST", "/v1/discover?wait=1", nil); err != nil || !rep.ok() {
		return fmt.Errorf("fresh discovery after churn: %v status %d %s", err, rep.status, rep.body)
	}
	fresh, err := c.do("GET", "/v1/campaign", nil)
	if err != nil || !fresh.ok() {
		return fmt.Errorf("exporting the fresh campaign: %v status %d", err, fresh.status)
	}
	// The check is graded by export rows, so the class's share tells a few
	// unrepaired rows from a campaign that was not healed at all.
	equal := bytes.Equal(healed.body, fresh.body)
	differ, rows, err := rowDiff(healed.body, fresh.body)
	if err != nil {
		return fmt.Errorf("comparing the healed and fresh exports: %w", err)
	}
	r.grade("convergence", equal, 1-float64(differ)/float64(max(rows, 1)),
		"healed export (digest %s) differs from a fresh /v1/discover on the post-churn topology (digest %s) in %d of %d rows",
		digest(healed.body), digest(fresh.body), differ, rows)
	if !equal {
		base := filepath.Join(r.workdir, fmt.Sprintf("churn-seed%d", r.seed))
		if err := os.WriteFile(base+"-healed.json", healed.body, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+"-fresh.json", fresh.body, 0o644); err != nil {
			return err
		}
		r.printf("convergence: both exports kept as %s-{healed,fresh}.json", base)
	}

	rs, ps := summarize(repairs, 90), summarize(readLat, 99)
	ls := summarize(late, 99)
	repairCycles := st1.cycles() - st0.cycles()
	nonEmpty := 0
	coneHist := map[int]int{}
	planned := map[int]int{}
	for _, ev := range sched {
		planned[coneBucket(ev.Cone)]++
	}
	for _, cl := range cones {
		if cl > 0 {
			nonEmpty++
		}
		coneHist[coneBucket(cl)]++
	}
	sortedCones := append([]int(nil), cones...)
	sort.Ints(sortedCones)
	r.printf("traffic: loopback HTTP to %s; open loop of %d churn events every %v + 1 closed-loop reader; %d connection(s) opened", d.base, len(sched), churnInterval, c.dials.Load())
	r.printf("setup_s (test anyoptd exec -> /v1/testbed, campaign preloaded) median of %d: %.4f %v", len(setups), median(setups), setups)
	r.printf("repair_ms (due -> committed): %s", rs)
	r.printf("reader predict_ms: %s; reader rps %.3f", ps, float64(len(readLat))/window.Seconds())
	r.printf("generator lateness ms: %s", ls)
	r.printf("workload: event kinds applied %v", kinds)
	if len(sortedCones) > 0 {
		r.printf("workload: cone clients min %d median %d max %d; buckets (lower bound:count) %s", sortedCones[0], sortedCones[len(sortedCones)/2], sortedCones[len(sortedCones)-1], hist(coneHist))
	}
	r.printf("workload: structural cones of fault.PlanChurn's draws, buckets (lower bound:count) %s", hist(planned))
	r.printf("workload: %d events with a non-empty cone repaired by %d repair cycles (%d coalesced); last repair probed %d of %d targets",
		nonEmpty, repairCycles, nonEmpty-int(repairCycles), st1.LastProbed, st1.LastTotal)
	r.printf("convergence: healed export digest %s, fresh discovery digest %s", digest(healed.body), digest(fresh.body))

	r.setE2E("setup_s", median(setups))
	r.setE2E("op_p50_ms", rs.P50)
	r.setE2E("op2_p50_ms", ps.P50)
	r.setE2E("throughput_per_s", float64(len(readLat))/window.Seconds())
	r.setE2E("cpu_ms_per_op", (cpu1-cpu0)/float64(len(sched)))
	r.setE2E("rss_mb_peak", hwm)

	if !r.trace {
		return nil
	}
	u := newUniqueConfigs(r.seed^readerSeedSalt, nSites)
	var reads []readReq
	for i := 0; i < 30; i++ {
		reads = append(reads, readReq{cfg: u.next(sizeAt(i, nSites))})
	}
	reads = append(reads, mixReads(makeServeMix(r.seed, nSites), 0, 2)...)
	return r.traced(c, replayInput{
		scale:   "test",
		fixture: fixture,
		reads:   reads,
		events:  sched[:min(3, len(sched))],
	}, traceFromE2E{genLate: late})
}

// coneBucket maps a cone size to the lower bound of its report bucket.
func coneBucket(n int) int {
	for _, b := range []int{64, 16, 4, 2, 1} {
		if n >= b {
			return b
		}
	}
	return 0
}

// exportRows splits a campaign export into rows: each preference store's
// relations grouped by client, each site's RTT to each client, and every
// other top-level field as one row. Keys name the section and the client.
func exportRows(b []byte) (map[string]string, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		return nil, err
	}
	rows := make(map[string]string)
	store := func(name string, raw json.RawMessage) error {
		var st struct {
			Items     json.RawMessage   `json:"items"`
			Relations []json.RawMessage `json:"relations"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		rows[name+"/items"] = string(st.Items)
		for _, rel := range st.Relations {
			var c struct {
				C int64 `json:"c"`
			}
			if err := json.Unmarshal(rel, &c); err != nil {
				return err
			}
			rows[fmt.Sprintf("%s/client %d", name, c.C)] += string(rel)
		}
		return nil
	}
	for key, raw := range top {
		switch key {
		case "providers":
			if err := store(key, raw); err != nil {
				return nil, err
			}
		case "site_stores":
			var stores map[string]json.RawMessage
			if err := json.Unmarshal(raw, &stores); err != nil {
				return nil, err
			}
			for p, st := range stores {
				if err := store(key+"/"+p, st); err != nil {
					return nil, err
				}
			}
		case "rtt":
			var sites map[string]map[string]json.RawMessage
			if err := json.Unmarshal(raw, &sites); err != nil {
				return nil, err
			}
			for site, clients := range sites {
				for c, v := range clients {
					rows["rtt/"+site+"/client "+c] = string(v)
				}
			}
		default:
			rows[key] = string(raw)
		}
	}
	return rows, nil
}

// rowDiff counts the rows present in either export, and those whose
// content differs between them (present in only one counts as differing).
func rowDiff(a, b []byte) (differ, total int, err error) {
	ra, err := exportRows(a)
	if err != nil {
		return 0, 0, err
	}
	rb, err := exportRows(b)
	if err != nil {
		return 0, 0, err
	}
	total = len(ra)
	for k, va := range ra {
		if vb, ok := rb[k]; !ok || va != vb {
			differ++
		}
	}
	for k := range rb {
		if _, ok := ra[k]; !ok {
			differ++
			total++
		}
	}
	return differ, total, nil
}
