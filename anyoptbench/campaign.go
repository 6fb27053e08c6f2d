package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"anyopt/internal/core/discovery"
)

// exportsPerJob is how many times the campaign workload exports the
// snapshot after each job: every export must carry the same digest.
const exportsPerJob = 8

// hwmJobs is the job count after which the campaign workload reads
// anyoptd's VmHWM. The peak grows with every job, so reading it after a
// fixed count keeps it from following how many jobs fit in the window; the
// loop runs past the window if fewer jobs have completed.
const hwmJobs = 4

// runCampaign drives back-to-back paper-scale discovery jobs, one at a time
// (a closed loop with one client), each journaling to a fresh checkpoint,
// and exports the snapshot after every job.
//
// Roles: op = one POST /v1/discover?wait=1&checkpoint=<fresh> job
// (campaign_s); op2 = one GET /v1/campaign export.
func runCampaign(r *run) error {
	_, fixture, err := r.fixture("paper")
	if err != nil {
		return err
	}
	sys, err := newSystem("paper")
	if err != nil {
		return err
	}
	wantExps := discovery.CampaignExperiments(sys.TB, sys.Options().UseRTTHeuristic)

	ckdir := filepath.Join(r.rundir, "ckpt")
	d, setups, err := startMeasured(r.anyoptd, daemonArgs("paper", "-checkpoint-dir", ckdir), filepath.Join(r.rundir, "anyoptd.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()

	var jobs, exports samples
	var writeMB []float64
	var late samples
	var hwm float64
	cpu0, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	due := start
	for i := 0; time.Now().Before(deadline) || (len(jobs) < hwmJobs && i < 2*hwmJobs); i++ {
		w0, err := procWchar(d.pid)
		if err != nil {
			return err
		}
		path := fmt.Sprintf("/v1/discover?wait=1&checkpoint=bench-%d-%d", r.seed, i)
		rep, err := c.do("POST", path, nil)
		late = append(late, ms(rep.sent.Sub(due)))
		if !r.check("job", err == nil && rep.ok(), "job %d: %v status %d %s", i, err, rep.status, rep.body) {
			continue
		}
		w1, err := procWchar(d.pid)
		if err != nil {
			return err
		}
		jobs = append(jobs, ms(rep.lat))
		writeMB = append(writeMB, float64(w1-w0)/(1<<20))
		if len(jobs) == hwmJobs {
			if hwm, err = procHWMmb(d.pid); err != nil {
				return err
			}
		}
		var body struct {
			Experiments int `json:"experiments"`
		}
		err = json.Unmarshal(rep.body, &body)
		r.check("experiments", err == nil && body.Experiments == wantExps,
			"job %d: %d experiments, want discovery.CampaignExperiments = %d (%v)", i, body.Experiments, wantExps, err)
		for k := 0; k < exportsPerJob; k++ {
			exp, err := c.do("GET", "/v1/campaign", nil)
			if !r.check("export", err == nil && exp.ok(), "job %d export %d: %v status %d", i, k, err, exp.status) {
				continue
			}
			exports = append(exports, ms(exp.lat))
			got := exportSum(exp.body)
			r.check("export_digest", got == wantExport["paper"],
				"job %d export %d: sha256 %s, want %s (wantExport in main.go; the campaign must be identical for every job and run)", i, k, got, wantExport["paper"])
		}
		due = time.Now()
	}
	window := time.Since(start)
	cpu1, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	if hwm == 0 {
		// Fewer than hwmJobs jobs succeeded; the failures are counted.
		if hwm, err = procHWMmb(d.pid); err != nil {
			return err
		}
	}

	js, es := summarize(jobs, 90), summarize(exports, 90)
	r.printf("traffic: loopback HTTP to %s, closed loop, 1 client, %d connection(s) opened", d.base, c.dials.Load())
	r.printf("setup_s (paper anyoptd exec -> /v1/testbed, no campaign) median of %d: %.4f %v", len(setups), median(setups), setups)
	r.printf("campaign_s (job wall, ms): %s", js)
	r.printf("campaign export (GET /v1/campaign, ms): %s", es)
	r.printf("jobs %d in %.2fs; experiments per job %d; export sha256 %s", len(jobs), window.Seconds(), wantExps, wantExport["paper"])
	r.printf("journal writes per job (anyoptd wchar delta, MB): %v", writeMB)
	r.printf("rss_mb_peak (anyoptd VmHWM after %d jobs): %.3f", hwmJobs, hwm)

	r.setE2E("setup_s", median(setups))
	r.setE2E("op_p50_ms", js.P50)
	r.setE2E("op2_p50_ms", es.P50)
	r.setE2E("throughput_per_s", float64(len(jobs))/window.Seconds())
	r.setE2E("cpu_ms_per_op", (cpu1-cpu0)/float64(max(len(jobs), 1)))
	r.setE2E("rss_mb_peak", hwm)

	if !r.trace {
		return nil
	}
	mix := makeServeMix(r.seed, len(sys.TB.Sites))
	return r.traced(c, replayInput{
		scale:   "paper",
		fixture: fixture,
		reads:   mixReads(mix, 16, 2),
		events:  makeChurnSchedule(r.seed, 1),
	}, traceFromE2E{journalWriteMB: median(writeMB), genLate: late})
}
