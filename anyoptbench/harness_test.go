package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"anyopt/internal/fault"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		want    float64
		idx     int
		q       float64
		ok      bool
		comment string
	}{
		{n: 1000, want: 99, idx: 989, q: 99, ok: true, comment: "p99 has exactly 10 beyond"},
		{n: 2000, want: 99, idx: 1979, q: 99, ok: true, comment: "p99 has 20 beyond"},
		{n: 100, want: 99, idx: 89, q: 90, ok: true, comment: "falls back to p90"},
		{n: 100, want: 90, idx: 89, q: 90, ok: true, comment: "p90 has exactly 10 beyond"},
		{n: 20, want: 90, idx: 9, q: 50, ok: true, comment: "only the median qualifies"},
		{n: 11, want: 90, idx: 0, q: 100.0 / 11, ok: true, comment: "the minimum is the only candidate"},
		{n: 10, want: 90, ok: false, comment: "no percentile has 10 beyond"},
	}
	for _, c := range cases {
		idx, q, ok := tailRank(c.n, c.want)
		if ok != c.ok || (ok && (idx != c.idx || q != c.q)) {
			t.Errorf("%s: tailRank(%d, %v) = %d, %v, %v; want %d, %v, %v", c.comment, c.n, c.want, idx, q, ok, c.idx, c.q, c.ok)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(3000)
		want := []float64{50, 90, 99, 99.9}[rng.Intn(4)]
		idx, q, ok := tailRank(n, want)
		if !ok {
			if n > minBeyond {
				t.Fatalf("tailRank(%d, %v) found no percentile", n, want)
			}
			continue
		}
		if beyond := n - 1 - idx; beyond < minBeyond {
			t.Fatalf("tailRank(%d, %v) = index %d with %d samples beyond", n, want, idx, beyond)
		}
		if q > want {
			t.Fatalf("tailRank(%d, %v) reports p%v above the wanted percentile", n, want, q)
		}
		// The next rank up must violate the rule, unless the wanted
		// percentile itself was granted.
		if q != want && n-1-(idx+1) >= minBeyond {
			t.Fatalf("tailRank(%d, %v) = %d is not the highest qualifying rank", n, want, idx)
		}
	}
}

func TestSummarizeTailNeverBelowMedian(t *testing.T) {
	s := summarize(samples{5, 1, 3}, 90)
	if s.N != 3 || s.P50 != 3 || s.Tail != 3 || s.TailQ != 50 || s.Max != 5 {
		t.Fatalf("summarize(3 samples) = %+v, want the tail at the median 3", s)
	}
	v := make(samples, 15)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// The rule alone would give p33 (index 4) for 15 samples.
	if s := summarize(v, 90); s.Tail != s.P50 || s.TailQ != 50 {
		t.Fatalf("summarize(15 samples) = %+v, want the tail clamped to the median", s)
	}
	v = make(samples, 200)
	for i := range v {
		v[i] = float64(200 - i) // 1..200, unsorted
	}
	s = summarize(v, 99)
	// p99 of 200 would leave 2 beyond; the rule falls back to index 189.
	if s.Tail != 190 || s.TailQ != 95 {
		t.Fatalf("summarize(1..200, 99) tail = %v at p%v, want 190 at p95", s.Tail, s.TailQ)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		// Two experiments overlap on parallel workers; a third runs past the
		// parent's end and is clipped.
		{ID: 2, Parent: 1, Name: "exp", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "exp", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "exp", Start: 90, End: 120},
		// A grandchild does not count against the phase.
		{ID: 5, Parent: 2, Name: "record", Start: 15, End: 25},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	stats := aggregate(spans, opKind)
	if st := stats["exp"]; st.Count != 3 || st.TotalNs != 90 || st.SelfNs != 80 {
		t.Errorf("aggregate exp = %+v, want count 3 total 90 self 80", *st)
	}
}

func TestTracerNestsAndDisables(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("churn-1", "reconcile.repair", 0)
	tr.timed("churn-1", "discovery.rtts", outer, func() { time.Sleep(time.Millisecond) })
	tr.end(outer)
	spans := tr.closed()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != "churn-1" {
		t.Fatalf("spans = %+v, want a child of the repair span", spans)
	}
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
	if k := opKind(spans[0].Op); k != "churn" {
		t.Fatalf("opKind(%q) = %q", spans[0].Op, k)
	}
	off := newTracer(false)
	if id := off.begin("x", "y", 0); id != 0 {
		t.Fatalf("disabled tracer returned span id %d", id)
	}
	ran := false
	off.timed("x", "y", 0, func() { ran = true })
	if !ran || len(off.closed()) != 0 {
		t.Fatalf("disabled tracer: ran=%v spans=%d; want the call run and nothing recorded", ran, len(off.closed()))
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueAt(start, 3).Sub(start); got != 3*churnInterval {
		t.Fatalf("event 3 due after %v, want %v", got, 3*churnInterval)
	}
	// The generator sent event 0 late; its repair time still runs from due.
	e := &pendingEvent{due: dueAt(start, 0), target: 2}
	keep, done, failed := settleRepairs([]*pendingEvent{e}, reconcileStatus{Repairs: 1})
	if len(keep) != 1 || len(done)+len(failed) != 0 {
		t.Fatalf("one cycle short: keep=%d done=%d failed=%d, want it outstanding", len(keep), len(done), len(failed))
	}
	keep, done, _ = settleRepairs(keep, reconcileStatus{Repairs: 2})
	if len(keep) != 0 || len(done) != 1 || done[0].due != start {
		t.Fatalf("target reached: keep=%d done=%d, want the event done with its due time", len(keep), len(done))
	}
	// A degraded repair after the event was posted fails it.
	e2 := &pendingEvent{due: dueAt(start, 1), target: 3, failures0: 0}
	_, done, failed = settleRepairs([]*pendingEvent{e2}, reconcileStatus{Repairs: 2, RepairFailures: 1})
	if len(done) != 0 || len(failed) != 1 {
		t.Fatalf("degraded repair: done=%d failed=%d, want the event failed", len(done), len(failed))
	}
}

func TestRepairTarget(t *testing.T) {
	cases := []struct {
		st   reconcileStatus
		want uint64
	}{
		// Queued behind a running cycle: the cycle after it repairs us.
		{reconcileStatus{Repairs: 4, PendingClients: 3, InFlight: 1}, 6},
		// Queued, nothing running: the next cycle.
		{reconcileStatus{Repairs: 4, RepairFailures: 1, PendingClients: 3}, 6},
		// The running cycle took our cone.
		{reconcileStatus{Repairs: 4, InFlight: 1}, 5},
		// Already repaired.
		{reconcileStatus{Repairs: 4}, 4},
	}
	for _, c := range cases {
		if got := repairTarget(c.st); got != c.want {
			t.Errorf("repairTarget(%+v) = %d, want %d", c.st, got, c.want)
		}
	}
}

func TestParseProcFiles(t *testing.T) {
	stat := []byte("4242 (any opt) (x)) S 1 4242 4242 0 -1 4194560 901 0 0 0 250 75 0 0 20 0 9 0 123 456 789\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3250 {
		t.Fatalf("parseStatCPU = %v, %v; want (250+75) ticks = 3250 ms", cpu, err)
	}
	if _, err := parseStatCPU([]byte("4242 (short) S 1 2")); err == nil {
		t.Fatal("parseStatCPU accepted a truncated line")
	}
	status := []byte("Name:\tanyoptd\nVmPeak:\t  900 kB\nVmHWM:\t   53444 kB\nVmRSS:\t   40000 kB\n")
	if kb, err := parseKeyed(status, "VmHWM"); err != nil || kb != 53444 {
		t.Fatalf("parseKeyed VmHWM = %v, %v", kb, err)
	}
	io := []byte("rchar: 100\nwchar: 61538304\nsyscr: 1\n")
	if b, err := parseKeyed(io, "wchar"); err != nil || b != 61538304 {
		t.Fatalf("parseKeyed wchar = %v, %v", b, err)
	}
	if _, err := parseKeyed(io, "VmHWM"); err == nil {
		t.Fatal("parseKeyed found a missing key")
	}
	// The live files parse too.
	if _, err := procCPUms(os.Getpid()); err != nil {
		t.Fatalf("procCPUms(self): %v", err)
	}
	if mb, err := procHWMmb(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("procHWMmb(self) = %v, %v", mb, err)
	}
	if _, err := procWchar(0); err != nil {
		t.Fatalf("procWchar(self): %v", err)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a, b := makeServeMix(7, 15), makeServeMix(7, 15)
	if configKey(a.Configs[3]) != configKey(b.Configs[3]) || a.Seq[999] != b.Seq[999] {
		t.Fatal("the same seed gave different serve mixes")
	}
	opt := 0
	for _, q := range a.Seq {
		if q < 0 {
			opt++
		}
	}
	if share := float64(opt) / float64(len(a.Seq)); share != 0.10 {
		t.Fatalf("optimize share %.3f, want 0.10", share)
	}
	sched := makeChurnSchedule(3, 12)
	seen := map[string]int{}
	for i, ev := range sched {
		seen[ev.Kind]++
		if ev.Kind == "link_up" && indexOf(kindsOf(sched[:i]), "link_down") < 0 {
			t.Fatalf("link_up at %d precedes every link_down", i)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("schedule kinds %v, want all four", seen)
	}
	u := newUniqueConfigs(1, 15)
	keys := map[string]bool{}
	for i := 0; i < 5000; i++ {
		k := configKey(u.next(sizeAt(i, 15)))
		if keys[k] {
			t.Fatalf("configuration %s repeated", k)
		}
		keys[k] = true
	}
}

func kindsOf(evs []churnEvent) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

// TestBenchmarkFilesAgree keeps BENCHMARK.json and layers.json in step with
// the metrics the benchmark emits.
func TestBenchmarkFilesAgree(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want map[string]string) {
		names := map[string]bool{}
		for _, m := range got {
			names[m.Name] = true
			if want[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q, the benchmark emits %q", what, m.Name, m.Unit, want[m.Name])
			}
		}
		for n := range want {
			if !names[n] {
				t.Errorf("%s: %s is emitted but not listed", what, n)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, e2eUnits)
	check("per_layer", bench.PerLayer, layerUnits)
	var wl []string
	for _, w := range bench.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	// churn runs (--workload churn) but is not listed: its convergence
	// check fails on some seeds because of a reconciler defect (README.md).
	if len(wl) != 2 || wl[0] != "campaign" || wl[1] != "serve" {
		t.Errorf("workloads %v, want campaign, serve", wl)
	}
	// layers.json may name every workload the program runs.
	wl = []string{"campaign", "churn", "serve"}

	raw, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		Metrics []struct {
			Name, Layer, Call string
			Moves             []struct{ Workload, Metric string }
			Includes          map[string][]string
		}
	}
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, m := range layers.Metrics {
		if _, ok := layerUnits[m.Name]; !ok {
			t.Errorf("layers.json maps %s, which the benchmark does not emit", m.Name)
		}
		if m.Layer == "" || m.Call == "" {
			t.Errorf("layers.json %s: layer and call are required", m.Name)
		}
		// Only the benchmark's own validity checks move nothing.
		if len(m.Moves) == 0 && m.Layer != "bench" {
			t.Errorf("layers.json %s: names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range m.Moves {
			if _, ok := e2eUnits[mv.Metric]; !ok || indexOf(wl, mv.Workload) < 0 {
				t.Errorf("layers.json %s: moves unknown %s on %s", m.Name, mv.Metric, mv.Workload)
			}
		}
		for w, inner := range m.Includes {
			for _, n := range inner {
				if _, ok := layerUnits[n]; !ok || indexOf(wl, w) < 0 || n == m.Name {
					t.Errorf("layers.json %s: includes unknown %s on %s", m.Name, n, w)
				}
			}
		}
		mapped[m.Name] = true
	}
	for n := range layerUnits {
		if !mapped[n] {
			t.Errorf("layers.json has no entry for %s", n)
		}
	}
}

func TestPlanChurnSendsPlanChurnDraws(t *testing.T) {
	plan, err := newSystem("test")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newSystem("test")
	if err != nil {
		t.Fatal(err)
	}
	sched := makeChurnSchedule(5, 20)
	planned, err := planChurn(plan.Topo, plan.TB.Origin, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range planned {
		// Each event is exactly fault.PlanChurn's draw for its seed and kind
		// on the topology the earlier events left.
		kind, err := fault.ChurnKindByName(sched[i].Kind)
		if err != nil {
			t.Fatal(err)
		}
		want := fault.PlanChurn(ref.Topo, sched[i].Seed, 1, []fault.ChurnKind{kind})
		if fmt.Sprint(ev.Events) != fmt.Sprint(want) {
			t.Fatalf("event %d: planned %v, fault.PlanChurn drew %v", i, ev.Events, want)
		}
		if _, err := fault.ApplyChurn(ref.Topo, want); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOkFracIsTheWorstClass(t *testing.T) {
	r := &run{classes: make(map[string]*tally)}
	r.attempt("reader", 5000)
	r.fail("reader", "one reader failure")
	for i := 0; i < 20; i++ {
		r.check("churn", i != 3, "event %d", i)
	}
	frac, worst := okFrac(r.classes)
	if worst != "churn" || frac != 0.95 {
		t.Fatalf("okFrac = %v (%s), want 0.95 (churn): twenty churn events weigh as much as 5000 reads", frac, worst)
	}
	r.grade("convergence", false, 0.9, "healed export differs in 10%% of rows")
	if frac, worst = okFrac(r.classes); worst != "convergence" || frac != 0.9 {
		t.Fatalf("okFrac = %v (%s), want the graded share 0.9 (convergence)", frac, worst)
	}
	if r.attempted != 5021 || r.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5021 and 3", r.attempted, r.failed)
	}
}

func TestRowDiffCountsClientRows(t *testing.T) {
	a := []byte(`{"version":1,"ann_order":[1,2],` +
		`"providers":{"items":[100,101],"relations":[{"c":7,"i":100,"j":101,"r":1,"w":100},{"c":8,"i":100,"j":101,"r":1,"w":101}]},` +
		`"site_stores":{"100":{"items":[1,2],"relations":[{"c":7,"i":1,"j":2,"r":1,"w":1}]}},` +
		`"rtt":{"1":{"7":100,"8":200},"2":{"7":300}}}`)
	differ, total, err := rowDiff(a, a)
	if err != nil || differ != 0 || total != 10 {
		t.Fatalf("rowDiff(a, a) = %d, %d, %v; want 0 of 10 rows", differ, total, err)
	}
	// One provider relation of client 8 and one of its RTTs change; a new
	// RTT row appears.
	b := bytes.Replace(a, []byte(`"c":8,"i":100,"j":101,"r":1,"w":101`), []byte(`"c":8,"i":100,"j":101,"r":1,"w":100`), 1)
	b = bytes.Replace(b, []byte(`"8":200}`), []byte(`"8":201,"9":5}`), 1)
	differ, total, err = rowDiff(a, b)
	if err != nil || differ != 3 || total != 11 {
		t.Fatalf("rowDiff(a, b) = %d, %d, %v; want 3 of 11 rows", differ, total, err)
	}
}

func TestCheckExportRefusesOtherCampaigns(t *testing.T) {
	for _, scale := range []string{"paper", "test"} {
		if len(wantExport[scale]) != 64 {
			t.Fatalf("wantExport[%s] = %q, want a sha256 in hex", scale, wantExport[scale])
		}
		if err := checkExport(scale, []byte(`{"version":1}`)); err == nil {
			t.Errorf("checkExport(%s) accepted an export with another sha256", scale)
		}
	}
}
