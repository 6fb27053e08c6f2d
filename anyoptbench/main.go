// Command anyoptbench is the repository's end-to-end benchmark. It starts the
// real anyoptd binary as a subprocess, drives it over loopback HTTP with a
// workload generated from --seed, verifies every answer, and prints one JSON
// result line. With --trace 1 it additionally replays the same seeded inputs
// in-process through the layers' public functions, with a span around each
// call, and reports per-layer figures instead of the end-to-end ones.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash anyoptbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md and layers.json):
//
//	campaign  back-to-back paper-scale discovery jobs, one at a time
//	serve     closed-loop predict/optimize mix on a preloaded paper campaign
//	churn     open-loop churn events beside a closed-loop predict reader
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"anyopt"
)

// topoSeed is the topology seed passed to every anyoptd. It is fixed so the
// campaign export digest can be compared across runs; --seed varies the
// requests.
const topoSeed = 1

// wantExport is the sha256 of the campaign export anyoptd produces at each
// scale and topoSeed (POST /v1/discover?wait=1, then GET /v1/campaign).
// Every fixture and every campaign job's export must carry it, so a build
// that measures a different campaign fails the benchmark instead of
// becoming its own reference. A change that alters the export on purpose
// updates these values.
var wantExport = map[string]string{
	"paper": "e0259385352edcefac1db692aab687889fa9752266f3dbb5d1321ffef976288a",
	"test":  "9eadd86049e44d8dccd256db6f0f0608a087c6b61edfc55a2740cbba6c820a1c",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics every workload reports. Each
// workload maps its own operations onto the op/op2 roles (README.md). Tail
// percentiles are printed in the report but not bounded here: on a 2-vCPU
// machine whose speed drifts by 10-20% between minutes, their run-to-run
// spread exceeds any bound a regression gate could use.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"op_p50_ms":        "ms",
	"op2_p50_ms":       "ms",
	"throughput_per_s": "1/s",
	"cpu_ms_per_op":    "ms",
	"rss_mb_peak":      "MB",
	"ok_frac":          "ratio",
}

// tally counts one class of checks (predict replies, churn events, the
// convergence check, ...).
type tally struct {
	attempted, failed int
	// graded, when set, replaces 1 - failed/attempted as the class's share
	// of passed checks: the share of one large output that matched.
	graded bool
	share  float64
}

func (t *tally) okShare() float64 {
	if t.graded {
		return t.share
	}
	return max(0, 1-float64(t.failed)/float64(max(t.attempted, 1)))
}

// okFrac is the lowest share of passed checks over the classes, so a class
// with few checks (churn events, the convergence check, optimizes) weighs
// as much as one with thousands (predicts). It returns the class too.
func okFrac(classes map[string]*tally) (float64, string) {
	frac, worst := 1.0, ""
	for _, name := range sortedKeys(classes) {
		if share := classes[name].okShare(); worst == "" || share < frac {
			frac, worst = share, name
		}
	}
	return frac, worst
}

// run is one benchmark invocation's state and report.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	anyoptd  string
	workdir  string // .bench_build
	rundir   string // this run's own files, removed at exit

	attempted int
	failed    int
	problems  []string
	classes   map[string]*tally

	e2e    map[string]metricValue
	layers map[string]metricValue
}

func (r *run) printf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func (r *run) tally(class string) *tally {
	t := r.classes[class]
	if t == nil {
		t = &tally{}
		r.classes[class] = t
	}
	return t
}

// attempt counts n attempted operations of a class of checks.
func (r *run) attempt(class string, n int) {
	r.attempted += n
	r.tally(class).attempted += n
}

// fail counts a failed operation of class. Only the first few messages are
// kept.
func (r *run) fail(class string, format string, args ...any) {
	r.failed++
	r.tally(class).failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one verified output of class; a false ok is a failure.
func (r *run) check(class string, ok bool, format string, args ...any) bool {
	r.attempt(class, 1)
	if !ok {
		r.fail(class, format, args...)
	}
	return ok
}

// grade counts one verified output of class, failed unless ok, and sets the
// class's share of passed checks to share (the part of the output that
// matched).
func (r *run) grade(class string, ok bool, share float64, format string, args ...any) {
	r.check(class, ok, format, args...)
	t := r.tally(class)
	t.graded, t.share = true, share
}

func (r *run) setE2E(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		panic("unknown end-to-end metric " + name)
	}
	r.e2e[name] = metricValue{Value: v, Unit: unit}
}

func (r *run) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("unknown per-layer metric " + name)
	}
	r.layers[name] = metricValue{Value: v, Unit: unit}
}

// daemonArgs are the anyoptd flags for a scale at the fixed topology seed.
func daemonArgs(scale string, extra ...string) []string {
	return append([]string{"-scale", scale, "-seed", fmt.Sprint(topoSeed)}, extra...)
}

// scaleOptions mirrors anyoptd's option selection for a scale and the
// fixed topology seed.
func scaleOptions(scale string) anyopt.Options {
	opts := anyopt.DefaultOptions()
	if scale == "paper" {
		opts = anyopt.PaperScaleOptions()
	}
	opts.Topology.Seed = topoSeed
	opts.Testbed.Seed = topoSeed
	return opts
}

// newSystem builds the System anyoptd serves at scale, in-process.
func newSystem(scale string) (*anyopt.System, error) {
	return anyopt.New(scaleOptions(scale))
}

// binaryKey identifies the anyoptd build, so cached fixtures are reused
// only by the program that produced them: every build's fixture is its own
// export, checked against wantExport.
func binaryKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fixture returns the campaign export anyoptd produces at scale and the
// fixed topology seed. The first call in a checkout creates it with a
// throwaway anyoptd (POST /v1/discover?wait=1, then GET /v1/campaign); later
// runs of the same binary reuse it. An export whose sha256 is not
// wantExport[scale] is refused: the benchmark's references would otherwise
// follow a wrong campaign.
func (r *run) fixture(scale string) (string, []byte, error) {
	key, err := binaryKey(r.anyoptd)
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Join(r.workdir, "fixtures")
	path := filepath.Join(dir, key+"-"+scale+".json")
	if b, err := os.ReadFile(path); err == nil {
		return path, b, checkExport(scale, b)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	d, _, err := startDaemon(r.anyoptd, daemonArgs(scale), filepath.Join(r.rundir, "fixture.log"))
	if err != nil {
		return "", nil, err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	if rep, err := c.do("POST", "/v1/discover?wait=1", nil); err != nil || !rep.ok() {
		return "", nil, fmt.Errorf("fixture discovery: %v %s", err, rep.body)
	}
	rep, err := c.do("GET", "/v1/campaign", nil)
	if err != nil || !rep.ok() {
		return "", nil, fmt.Errorf("fixture export: %v %s", err, rep.body)
	}
	if err := checkExport(scale, rep.body); err != nil {
		return "", nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, rep.body, 0o644); err != nil {
		return "", nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", nil, err
	}
	return path, rep.body, nil
}

// checkExport refuses a campaign export that is not the one recorded in
// wantExport for its scale.
func checkExport(scale string, b []byte) error {
	if got := exportSum(b); got != wantExport[scale] {
		return fmt.Errorf("the %s-scale campaign export has sha256 %s, want %s (wantExport in main.go): anyoptd measures a different campaign", scale, got, wantExport[scale])
	}
	return nil
}

func exportSum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// digest is a short form of exportSum for report lines.
func digest(b []byte) string { return exportSum(b)[:16] }

func main() {
	var (
		workload = flag.String("workload", "", "campaign, serve or churn")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 25, "measurement window per run")
		traceOn  = flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
		bin      = flag.String("anyoptd", "", "anyoptd binary to drive")
		workdir  = flag.String("workdir", ".bench_build", "directory for fixtures, traces and per-run files")
	)
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "anyoptbench: -anyoptd is required (use run.sh)")
		os.Exit(2)
	}
	run := map[string]func(*run) error{
		"campaign": runCampaign,
		"serve":    runServe,
		"churn":    runChurn,
	}[*workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "anyoptbench: unknown workload %q (campaign, serve, churn)\n", *workload)
		os.Exit(2)
	}
	os.Exit(execute(*workload, *seed, *seconds, *traceOn == 1, *bin, *workdir, run))
}

func execute(workload string, seed int64, seconds float64, trace bool, bin, workdir string, body func(*run) error) int {
	abs, err := filepath.Abs(workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anyoptbench:", err)
		return 2
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "anyoptbench:", err)
		return 2
	}
	rundir, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "anyoptbench:", err)
		return 2
	}
	defer os.RemoveAll(rundir)
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		anyoptd: bin, workdir: abs, rundir: rundir,
		e2e: make(map[string]metricValue), layers: make(map[string]metricValue),
		classes: make(map[string]*tally),
	}
	r.printf("anyoptbench: workload=%s seed=%d seconds=%g trace=%v topology-seed=%d", workload, seed, seconds, trace, topoSeed)
	if err := body(r); err != nil {
		fmt.Fprintln(os.Stderr, "anyoptbench:", err)
		return 2
	}
	if r.attempted > 0 {
		frac, worst := okFrac(r.classes)
		r.setE2E("ok_frac", frac)
		if frac < 1 {
			r.printf("ok_frac %.6f (lowest share of passed checks, class %s)", frac, worst)
		} else {
			r.printf("ok_frac 1 (every check class passed)")
		}
	}
	r.printf("failed_frac %.6f (%d failed of %d attempted)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, name := range sortedKeys(r.classes) {
		t := r.classes[name]
		r.printf("  checks %-14s %d failed of %d, share passed %.6f", name, t.failed, t.attempted, t.okShare())
	}
	for _, p := range r.problems {
		r.printf("  FAILED: %s", p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if trace {
		res.Metrics = r.layers
		if missing := missingKeys(layerUnits, r.layers); len(missing) > 0 {
			fmt.Fprintln(os.Stderr, "anyoptbench: per-layer metrics not measured:", strings.Join(missing, ", "))
			return 2
		}
	} else {
		res.Metrics = r.e2e
		if missing := missingKeys(e2eUnits, r.e2e); len(missing) > 0 {
			fmt.Fprintln(os.Stderr, "anyoptbench: end-to-end metrics not measured:", strings.Join(missing, ", "))
			return 2
		}
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "anyoptbench: no operation was attempted")
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anyoptbench:", err)
		return 2
	}
	// A printed result is a completed run: a verifier failure is reported
	// through correct and failed, not through the exit code.
	fmt.Println(string(line))
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func missingKeys(want map[string]string, got map[string]metricValue) []string {
	var out []string
	for k := range want {
		if _, ok := got[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
