package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"anyopt"
	"anyopt/internal/fault"
	"anyopt/internal/reconcile"
	"anyopt/internal/topology"
)

// Every workload input is drawn from the run's --seed; anyoptd only ever
// sees the generated requests and the fixed topology seed.

func configKey(cfg anyopt.Config) string {
	parts := make([]string, len(cfg))
	for i, s := range cfg {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}

// uniqueConfigs hands out configurations that never repeat within a run.
type uniqueConfigs struct {
	rng    *rand.Rand
	nSites int
	seen   map[string]bool
}

func newUniqueConfigs(seed int64, nSites int) *uniqueConfigs {
	return &uniqueConfigs{rng: rand.New(rand.NewSource(seed)), nSites: nSites, seen: make(map[string]bool)}
}

// maxCollisions is how many repeats next tolerates at one size before it
// moves to the next size, whose configuration space is larger.
const maxCollisions = 64

// next returns a configuration of about the given number of sites that this
// generator has not returned before.
func (u *uniqueConfigs) next(size int) anyopt.Config {
	for tries := 1; ; tries++ {
		cfg := make(anyopt.Config, size)
		for i, p := range u.rng.Perm(u.nSites)[:size] {
			cfg[i] = p + 1
		}
		if k := configKey(cfg); !u.seen[k] {
			u.seen[k] = true
			return cfg
		}
		if tries%maxCollisions == 0 {
			size = 2 + (size-1)%(u.nSites-1)
		}
	}
}

// sizeAt cycles configuration sizes through 2..nSites, so every run carries
// the same size mix whatever its seed.
func sizeAt(i, nSites int) int { return 2 + i%(nSites-1) }

// optRequest is one /v1/optimize request shape.
type optRequest struct {
	K       int
	Exclude int // 0 = none
}

func (o optRequest) path() string {
	p := fmt.Sprintf("/v1/optimize?k=%d", o.K)
	if o.Exclude != 0 {
		p += fmt.Sprintf("&exclude=%d", o.Exclude)
	}
	return p
}

// serveMix is the serve workload's seeded request stream: 90% predicts over
// a Zipf-skewed pool of configurations (so repeats occur), 10% optimizes
// with k in 8..13, half of them excluding one site.
//
// The seed picks which sites each configuration holds, their order, the
// excluded sites and the Zipf draws. The cost structure is the same for
// every seed, so runs on different seeds measure the same work: pool rank r
// (popularity order) always holds 2 + r mod (nSites-1) sites, every tenth
// request is an optimize, and optimizes cycle through the twelve (k,
// exclude) shapes in a seeded order.
type serveMix struct {
	Configs []anyopt.Config
	Opts    []optRequest
	// Seq lists requests in send order: >= 0 indexes Configs (a predict),
	// < 0 indexes Opts as -1-i (an optimize).
	Seq []int
}

// serveZipfS is the pool's Zipf exponent. It is a choice, not a figure
// measured from operator traffic: math/rand's Zipf needs s > 1, and 1.1 is
// near that floor, so the skew is mild. Nothing in the repository or the
// paper measures how callers repeat configurations; treat it as unverified.
const (
	servePoolSize = 64
	serveOptEvery = 10
	serveZipfS    = 1.1
	serveSeqLen   = 50000
)

func makeServeMix(seed int64, nSites int) *serveMix {
	rng := rand.New(rand.NewSource(seed))
	m := &serveMix{}
	u := &uniqueConfigs{rng: rng, nSites: nSites, seen: make(map[string]bool)}
	for r := 0; r < servePoolSize; r++ {
		m.Configs = append(m.Configs, u.next(sizeAt(r, nSites)))
	}
	for k := 8; k <= 13; k++ {
		m.Opts = append(m.Opts, optRequest{K: k}, optRequest{K: k, Exclude: 1 + rng.Intn(nSites)})
	}
	optOrder := rng.Perm(len(m.Opts))
	zipf := rand.NewZipf(rng, serveZipfS, 1, servePoolSize-1)
	m.Seq = make([]int, serveSeqLen)
	for i := range m.Seq {
		if i%serveOptEvery == serveOptEvery-1 {
			m.Seq[i] = -1 - optOrder[(i/serveOptEvery)%len(optOrder)]
		} else {
			m.Seq[i] = int(zipf.Uint64())
		}
	}
	return m
}

// churnEvent is one scheduled POST /v1/churn: a kind and a seed for
// fault.PlanChurn, or, once planned, the explicit events to send.
type churnEvent struct {
	Seed   int64
	Kind   string
	Events []fault.ChurnEvent
	// Cone is the structural cone size the events had when planned.
	Cone int
}

var churnKinds = []string{"link_cost", "link_down", "link_up", "policy_flip"}

// makeChurnSchedule draws n events covering all four kinds: each block of
// four is a seeded permutation with link_down placed before link_up, so the
// up event has a downed link to restore.
func makeChurnSchedule(seed int64, n int) []churnEvent {
	rng := rand.New(rand.NewSource(seed))
	out := make([]churnEvent, 0, n)
	for len(out) < n {
		block := append([]string(nil), churnKinds...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		down, up := indexOf(block, "link_down"), indexOf(block, "link_up")
		if up < down {
			block[up], block[down] = block[down], block[up]
		}
		for _, k := range block {
			if len(out) < n {
				out = append(out, churnEvent{Seed: rng.Int63(), Kind: k})
			}
		}
	}
	return out
}

// planChurn turns a schedule into explicit events against topo, which it
// mutates exactly as anyoptd will: each event is fault.PlanChurn's own draw
// for the event's seed and kind, applied as drawn. Cone records the
// structural cone (reconcile.StructuralCone) the event leaves, which the
// workload report prints as a distribution.
func planChurn(topo *topology.Topology, origin topology.ASN, sched []churnEvent) ([]churnEvent, error) {
	out := make([]churnEvent, len(sched))
	for i, ev := range sched {
		kind, err := fault.ChurnKindByName(ev.Kind)
		if err != nil {
			return nil, err
		}
		events := fault.PlanChurn(topo, ev.Seed, 1, []fault.ChurnKind{kind})
		delta, err := fault.ApplyChurn(topo, events)
		if err != nil {
			return nil, err
		}
		cone := len(reconcile.StructuralCone(topo, origin, delta).Clients)
		out[i] = churnEvent{Seed: ev.Seed, Kind: events[0].Kind.String(), Events: events, Cone: cone}
	}
	return out, nil
}

func indexOf(v []string, s string) int {
	for i, x := range v {
		if x == s {
			return i
		}
	}
	return -1
}

// hist renders a small integer histogram as "value:count" pairs.
func hist(counts map[int]int) string {
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d:%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}
