package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/predict"
)

// serveConns is the closed loop's client count; each keeps one keep-alive
// connection.
const serveConns = 2

// accuracyConfigs is how many seeded configurations are deployed through
// /v1/measure to check prediction accuracy; accuracySeedSalt separates
// their draw from the request mix drawn from the same --seed.
const (
	accuracyConfigs  = 3
	accuracySeedSalt = 0x5eed
)

// predictBody is the part of a /v1/predict reply the verifier checks.
type predictBody struct {
	Config      []int          `json:"config"`
	MeanRTTms   float64        `json:"mean_rtt_ms"`
	Predictable int            `json:"predictable"`
	Catchments  map[string]int `json:"catchment_szs"`
}

// optimizeBody is the part of a /v1/optimize reply the verifier checks.
type optimizeBody struct {
	Config          []int   `json:"config"`
	PredictedMeanMS float64 `json:"predicted_mean_ms"`
	Subsets         int     `json:"subsets"`
	Orderable       int     `json:"orderable_clients"`
}

// referencePredict computes the /v1/predict fields in-process against snap.
func referencePredict(snap *anyopt.Snapshot, cfg anyopt.Config) predictBody {
	catch := snap.PredictCatchments(cfg)
	mean, n := snap.PredictMeanRTT(cfg)
	sizes := map[string]int{}
	for _, site := range catch {
		sizes[strconv.Itoa(site)]++
	}
	return predictBody{Config: cfg, MeanRTTms: float64(mean) / 1e6, Predictable: n, Catchments: sizes}
}

// referenceOptimize computes the /v1/optimize fields in-process against snap.
func referenceOptimize(snap *anyopt.Snapshot, o optRequest) (optimizeBody, error) {
	var res anyopt.OptimizeResult
	var err error
	if o.Exclude != 0 {
		res, err = snap.OptimizeExcluding(o.K, 0, o.Exclude)
	} else {
		res, err = snap.Optimize(o.K, 0)
	}
	return optimizeBody{
		Config: res.Config, PredictedMeanMS: float64(res.PredictedMean) / 1e6,
		Subsets: res.SubsetsEvaluated, Orderable: res.OrderableClients,
	}, err
}

func samePredict(a, b predictBody) bool {
	if a.MeanRTTms != b.MeanRTTms || a.Predictable != b.Predictable || len(a.Catchments) != len(b.Catchments) {
		return false
	}
	for k, v := range a.Catchments {
		if b.Catchments[k] != v {
			return false
		}
	}
	return fmt.Sprint(a.Config) == fmt.Sprint(b.Config)
}

func sameOptimize(a, b optimizeBody) bool {
	return fmt.Sprint(a.Config) == fmt.Sprint(b.Config) && a.PredictedMeanMS == b.PredictedMeanMS &&
		a.Subsets == b.Subsets && a.Orderable == b.Orderable
}

// serveSample is one completed closed-loop request.
type serveSample struct {
	idx int // index into serveMix.Seq
	lat time.Duration
}

// serveFailure is one closed-loop request that failed its check.
type serveFailure struct {
	class, msg string
}

// requestClass is the check class of a request in serveMix.Seq.
func requestClass(q int) string {
	if q < 0 {
		return "optimize"
	}
	return "predict"
}

// runServe drives a closed loop of predicts and optimizes from two
// keep-alive connections against a paper-scale anyoptd preloaded with the
// campaign fixture, checking every reply against the in-process Snapshot.
//
// Roles: op = /v1/predict (predict_ms_p50, predict_ms_p99); op2 =
// /v1/optimize (optimize_ms_p50, optimize_ms_p90); throughput = serve_rps.
func runServe(r *run) error {
	fixturePath, fixture, err := r.fixture("paper")
	if err != nil {
		return err
	}
	sys, err := newSystem("paper")
	if err != nil {
		return err
	}
	if err := campaign.Load(bytes.NewReader(fixture), sys); err != nil {
		return err
	}
	snap := sys.CurrentSnapshot()
	mix := makeServeMix(r.seed, len(sys.TB.Sites))
	refPred := make([]predictBody, len(mix.Configs))
	for i, cfg := range mix.Configs {
		refPred[i] = referencePredict(snap, cfg)
	}
	refOpt := make([]optimizeBody, len(mix.Opts))
	for i, o := range mix.Opts {
		if refOpt[i], err = referenceOptimize(snap, o); err != nil {
			return fmt.Errorf("reference optimize %+v: %w", o, err)
		}
	}

	d, setups, err := startMeasured(r.anyoptd, daemonArgs("paper", "-campaign", fixturePath), filepath.Join(r.rundir, "anyoptd.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()

	cpu0, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		done     []serveSample
		failures []serveFailure
		late     samples
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(mix.Seq) {
					return
				}
				q := mix.Seq[i]
				path := "/v1/predict?config=" + configKey(mix.Configs[max(q, 0)])
				if q < 0 {
					path = mix.Opts[-1-q].path()
				}
				rep, err := c.do("GET", path, nil)
				var problem string
				switch {
				case err != nil || !rep.ok():
					problem = fmt.Sprintf("%s: %v status %d %s", path, err, rep.status, rep.body)
				case q >= 0:
					var got predictBody
					if err := json.Unmarshal(rep.body, &got); err != nil || !samePredict(got, refPred[q]) {
						problem = fmt.Sprintf("%s: reply %s differs from the in-process Snapshot reference %+v", path, rep.body, refPred[q])
					}
				default:
					var got optimizeBody
					if err := json.Unmarshal(rep.body, &got); err != nil || !sameOptimize(got, refOpt[-1-q]) {
						problem = fmt.Sprintf("%s: reply %s differs from the in-process Snapshot reference %+v", path, rep.body, refOpt[-1-q])
					}
				}
				mu.Lock()
				late = append(late, ms(rep.sent.Sub(due)))
				if problem != "" {
					failures = append(failures, serveFailure{requestClass(q), problem})
				} else {
					done = append(done, serveSample{idx: i, lat: rep.lat})
				}
				mu.Unlock()
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	cpu1, err := procCPUms(d.pid)
	if err != nil {
		return err
	}
	hwm, err := procHWMmb(d.pid)
	if err != nil {
		return err
	}
	for _, s := range done {
		r.attempt(requestClass(mix.Seq[s.idx]), 1)
	}
	for _, f := range failures {
		r.attempt(f.class, 1)
		r.fail(f.class, "%s", f.msg)
	}

	var predLat, optLat samples
	byShape := make([]samples, len(mix.Opts))
	seen := make(map[int]bool)
	repeats, predicts := 0, 0
	sizes, ks := map[int]int{}, map[int]int{}
	excl := 0
	for _, s := range done {
		q := mix.Seq[s.idx]
		if q >= 0 {
			predLat = append(predLat, ms(s.lat))
			predicts++
			if seen[q] {
				repeats++
			}
			seen[q] = true
			sizes[len(mix.Configs[q])]++
			continue
		}
		optLat = append(optLat, ms(s.lat))
		byShape[-1-q] = append(byShape[-1-q], ms(s.lat))
		o := mix.Opts[-1-q]
		ks[o.K]++
		if o.Exclude != 0 {
			excl++
		}
	}
	ps, opsum := summarize(predLat, 99), summarize(optLat, 90)
	optShapes := shapeMedian(byShape)
	rps := float64(len(done)) / window.Seconds()
	r.printf("traffic: loopback HTTP to %s, closed loop, %d clients, %d connection(s) opened", d.base, serveConns, c.dials.Load())
	r.printf("setup_s (paper anyoptd exec -> /v1/testbed, campaign preloaded) median of %d: %.4f %v", len(setups), median(setups), setups)
	r.printf("predict_ms: %s", ps)
	r.printf("optimize_ms: %s; mean over the %d (k, exclude) shapes of each shape's median %.3f", opsum, len(mix.Opts), optShapes)
	r.printf("serve_rps %.3f (%d requests in %.2fs)", rps, len(done), window.Seconds())
	r.printf("workload: %d predicts, %.1f%% repeat an earlier config, %d distinct configs of %d in the pool", predicts, 100*float64(repeats)/float64(max(predicts, 1)), len(seen), len(mix.Configs))
	r.printf("workload: predict config sizes %s", hist(sizes))
	r.printf("workload: %d optimizes, k mix %s, %d with one excluded site", len(optLat), hist(ks), excl)

	r.setE2E("setup_s", median(setups))
	r.setE2E("op_p50_ms", ps.P50)
	r.setE2E("op2_p50_ms", optShapes)
	r.setE2E("throughput_per_s", rps)
	r.setE2E("cpu_ms_per_op", (cpu1-cpu0)/float64(max(len(done), 1)))
	r.setE2E("rss_mb_peak", hwm)

	// Accuracy runs after the measured window: a measure deploys a real
	// experiment and would perturb the loop.
	if err := r.checkAccuracy(c, sys, snap); err != nil {
		return err
	}

	if !r.trace {
		return nil
	}
	return r.traced(c, replayInput{
		scale:   "paper",
		fixture: fixture,
		reads:   mixReads(mix, 30, 4),
		events:  makeChurnSchedule(r.seed, 1),
	}, traceFromE2E{genLate: late})
}

// checkAccuracy deploys a few seeded configurations through /v1/measure and
// requires that the prediction agrees with the measurement: per client
// (in-process, predict.Accuracy against System.MeasureConfiguration) and per
// catchment size (over HTTP, /v1/predict against /v1/measure). Fig 5a
// reports 94.7% per-client accuracy; the check requires 90%.
func (r *run) checkAccuracy(c *client, sys *anyopt.System, snap *anyopt.Snapshot) error {
	u := newUniqueConfigs(r.seed^accuracySeedSalt, len(sys.TB.Sites))
	for i := 0; i < accuracyConfigs; i++ {
		cfg := u.next(sizeAt(5*i, len(sys.TB.Sites)))
		key := configKey(cfg)
		measured, _ := sys.MeasureConfiguration(cfg)
		acc, n := predict.Accuracy(snap.PredictCatchments(cfg), measured)

		mrep, err := c.do("GET", "/v1/measure?config="+key, nil)
		prep, perr := c.do("GET", "/v1/predict?config="+key, nil)
		if !r.check("accuracy", err == nil && perr == nil && mrep.ok() && prep.ok(), "accuracy %s: measure %v/%d predict %v/%d", key, err, mrep.status, perr, prep.status) {
			continue
		}
		var m struct {
			Measured   int            `json:"measured"`
			Catchments map[string]int `json:"catchment_szs"`
		}
		var p predictBody
		if err := json.Unmarshal(mrep.body, &m); err != nil {
			return err
		}
		if err := json.Unmarshal(prep.body, &p); err != nil {
			return err
		}
		diff, total := 0, 0
		for site, nm := range m.Catchments {
			diff += abs(nm - p.Catchments[site])
			total += nm
		}
		for site, np := range p.Catchments {
			if _, ok := m.Catchments[site]; !ok {
				diff += np
			}
		}
		sizeAgree := 1 - float64(diff)/2/float64(max(total, 1))
		r.printf("accuracy config %s: per-client %.4f over %d clients (in-process); catchment-size agreement /v1/predict vs /v1/measure %.4f", key, acc, n, sizeAgree)
		r.check("accuracy", acc >= 0.90, "accuracy %s: per-client accuracy %.4f < 0.90", key, acc)
		r.check("accuracy", sizeAgree >= 0.90, "accuracy %s: catchment-size agreement %.4f < 0.90", key, sizeAgree)
	}
	return nil
}

// shapeMedian is the mean over request shapes of each shape's median
// latency. The optimize shapes cost from tens to hundreds of milliseconds
// and a run completes only a few of each, so the median of all optimizes
// jumps with whichever shape lands in the middle of the sample; averaging
// per-shape medians keeps every shape's weight fixed. Shapes without a
// sample are left out.
func shapeMedian(byShape []samples) float64 {
	var meds []float64
	for _, s := range byShape {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return mean(meds)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// mixReads takes the first nPred predicts and nOpt optimizes of a serve mix,
// in send order, for the traced replay.
func mixReads(mix *serveMix, nPred, nOpt int) []readReq {
	var out []readReq
	p, o := 0, 0
	for _, q := range mix.Seq {
		switch {
		case q >= 0 && p < nPred:
			out = append(out, readReq{cfg: mix.Configs[q]})
			p++
		case q < 0 && o < nOpt:
			opt := mix.Opts[-1-q]
			out = append(out, readReq{opt: &opt})
			o++
		}
		if p == nPred && o == nOpt {
			break
		}
	}
	return out
}
