package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one operation (a campaign, one read
// request, one churn event) share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer makes
// begin/end no-ops, so the same replay runs with spans off to measure the
// tracing overhead. Safe for concurrent use: discovery experiments report
// from worker goroutines.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[int]int // span id -> index in spans
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), open: make(map[int]int)}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(op, name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.open[id] = len(t.spans) - 1
	return id
}

// end closes span id; id 0 is ignored.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(op, name string, parent int, fn func()) {
	id := t.begin(op, name, parent)
	fn()
	t.end(id)
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap one another
// (experiments run on parallel workers), so the covered part is the length
// of the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - coveredNs(s, children[s.ID])
	}
	return out
}

// coveredNs is the length of the union of kids' intervals within parent.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count    int
	TotalNs  int64
	SelfNs   int64
	byOpKind map[string][]int64 // op kind -> inclusive durations
}

// aggregate groups spans by name. opKind maps a span's op id to the
// operation kind it belongs to ("campaign-0" -> "campaign").
func aggregate(spans []span, opKind func(string) string) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{byOpKind: make(map[string][]int64)}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.dur()
		st.SelfNs += self[s.ID]
		k := opKind(s.Op)
		st.byOpKind[k] = append(st.byOpKind[k], s.dur())
	}
	return out
}

// meanMs is the mean inclusive duration of the named spans in ops of the
// given kind, in ms; ok is false when there are none.
func (st *layerStat) meanMs(kind string) (float64, bool) {
	if st == nil || len(st.byOpKind[kind]) == 0 {
		return 0, false
	}
	var sum int64
	for _, d := range st.byOpKind[kind] {
		sum += d
	}
	return float64(sum) / float64(len(st.byOpKind[kind])) / 1e6, true
}

func formatLayerTable(stats map[string]*layerStat) []string {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("  %-30s %8s %12s %12s", "span", "count", "total_ms", "self_ms")}
	for _, n := range names {
		st := stats[n]
		lines = append(lines, fmt.Sprintf("  %-30s %8d %12.3f %12.3f", n, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6))
	}
	return lines
}
