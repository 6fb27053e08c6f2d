package anyopt_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/testbed"
)

// entryDeadline bounds each optimize call. Every answer below takes well
// under a second; an entry point that falls back to enumerating all 2ⁿ
// subsets of a >20-site testbed takes minutes.
const entryDeadline = 30 * time.Second

// question is one optimize request, asked through every entry point.
type question struct {
	k       int
	exclude []int
}

// TestOptimizeEntryPointsAgree asks the same question through Optimize,
// OptimizeExcluding, OptimizeWith, and the /v1/optimize handler, and
// requires one configuration and one predicted mean from all of them — on
// the paper's 15-site testbed and on a 28-site one past the exhaustive
// enumerator's reach.
func TestOptimizeEntryPointsAgree(t *testing.T) {
	paper, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := paper.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	big := bigSystem(t)

	for _, c := range []struct {
		name string
		sys  *anyopt.System
		q    question
	}{
		{"15 sites", paper, question{k: 6}},
		{"15 sites excluding one", paper, question{k: 6, exclude: []int{5}}},
		{"28 sites", big, question{k: 8}},
		{"28 sites excluding one", big, question{k: 0, exclude: []int{3}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			answers := askEverywhere(t, c.sys, c.q)
			want := answers[0]
			if len(want.config) == 0 {
				t.Fatalf("%s: empty configuration", want.via)
			}
			for _, got := range answers[1:] {
				if !slices.Equal(got.config, want.config) || got.mean != want.mean {
					t.Errorf("%s answered %v (%v ms), %s answered %v (%v ms)",
						got.via, got.config, got.mean, want.via, want.config, want.mean)
				}
			}
			for _, id := range c.q.exclude {
				if slices.Contains(want.config, id) {
					t.Errorf("excluded site %d in %v", id, want.config)
				}
			}
		})
	}
}

// bigSystem runs a campaign over Table 1 plus 13 transit-only sites at
// Table 1's first 13 locations. The RTT heuristic stands in for intra-AS
// experiments to keep the campaign cheap.
func bigSystem(t *testing.T) *anyopt.System {
	t.Helper()
	sites := slices.Clone(testbed.Table1)
	for _, s := range testbed.Table1[:13] {
		s.Peers = 0
		sites = append(sites, s)
	}
	opts := anyopt.DefaultOptions()
	opts.Testbed.Sites = sites
	opts.UseRTTHeuristic = true
	sys, err := anyopt.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// answer is one entry point's reply to a question.
type answer struct {
	via    string
	config anyopt.Config
	mean   float64 // predicted mean, ms
}

// askEverywhere asks q through each entry point that can express it.
func askEverywhere(t *testing.T, sys *anyopt.System, q question) []answer {
	t.Helper()
	var out []answer
	facade := func(via string, fn func() (anyopt.OptimizeResult, error)) {
		res := within(t, via, fn)
		out = append(out, answer{via, res.Config, float64(res.PredictedMean) / 1e6})
	}
	if len(q.exclude) == 0 {
		facade("Optimize", func() (anyopt.OptimizeResult, error) { return sys.Optimize(q.k, 0) })
	}
	facade("OptimizeExcluding", func() (anyopt.OptimizeResult, error) {
		return sys.OptimizeExcluding(q.k, 0, q.exclude...)
	})
	facade("OptimizeWith", func() (anyopt.OptimizeResult, error) {
		return sys.OptimizeWith(anyopt.OptimizeOptions{K: q.k, Exclude: q.exclude})
	})

	ids := make([]string, len(q.exclude))
	for i, id := range q.exclude {
		ids[i] = strconv.Itoa(id)
	}
	url := fmt.Sprintf("/v1/optimize?k=%d&exclude=%s", q.k, strings.Join(ids, ","))
	handler := api.NewServer(sys).Handler()
	var body struct {
		Config []int   `json:"config"`
		Mean   float64 `json:"predicted_mean_ms"`
	}
	within(t, url, func() (anyopt.OptimizeResult, error) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			return anyopt.OptimizeResult{}, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return anyopt.OptimizeResult{}, json.Unmarshal(rec.Body.Bytes(), &body)
	})
	return append(out, answer{"/v1/optimize", body.Config, body.Mean})
}

// within runs one optimize call and fails the test if it errors or is still
// running after entryDeadline. An optimize cannot be cancelled, so a call
// that overruns is left to finish on its own goroutine after the failure.
func within(t *testing.T, via string, fn func() (anyopt.OptimizeResult, error)) anyopt.OptimizeResult {
	t.Helper()
	var (
		res  anyopt.OptimizeResult
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		res, err = fn()
	}()
	select {
	case <-done:
	case <-time.After(entryDeadline):
		t.Fatalf("%s still running after %v", via, entryDeadline)
	}
	if err != nil {
		t.Fatalf("%s: %v", via, err)
	}
	return res
}
