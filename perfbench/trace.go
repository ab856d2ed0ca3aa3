package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that made the call (0 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its identifier (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured, such as a solve
// reported by the engine's trace hook when it ends.
func (t *tracer) add(op, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed duration of its spans and
// their self time: each span's duration minus the part of its interval
// that its child spans cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(s.Start, s.End, children[s.ID])
		v := out[s.Name]
		v[0] += time.Duration(dur)
		v[1] += time.Duration(self)
		out[s.Name] = v
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes the per-layer total and self time of the run.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	fmt.Fprintf(w, "perfbench: %-28s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "perfbench: %-28s %12.1f %12.1f\n", n,
			float64(st[n][0])/1e6, float64(st[n][1])/1e6)
	}
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerKey addresses the samples one layer metric collected in one pass.
type layerKey struct {
	ph    phase
	round int
	name  string
}

// layerStore collects per-layer samples of a traced run.
type layerStore struct {
	mu   sync.Mutex
	vals map[layerKey][]float64
}

func newLayerStore() *layerStore { return &layerStore{vals: make(map[layerKey][]float64)} }

func (l *layerStore) add(ph phase, round int, name string, v float64) {
	l.mu.Lock()
	k := layerKey{ph, round, name}
	l.vals[k] = append(l.vals[k], v)
	l.mu.Unlock()
}

// aggregation says how a layer metric turns its samples into one figure.
type aggregation int

const (
	// perPass sums the samples of each pass and takes the median over the
	// passes of the metric's phase.
	perPass aggregation = iota
	// firstPass sums the samples of the phase's first pass (for counts,
	// which repeat exactly from run to run).
	firstPass
	// perOp takes the median over all single samples of the phase.
	perOp
)

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct {
	name string
	unit string
	ph   phase
	agg  aggregation
}

// layerMetrics lists every per-layer metric. Layers that a workload
// bypasses report 0. Layer times are wall-clock times of the calls. A
// traced run also reports its own pass times: traced.* on the workload's
// clock, that of the end-to-end metrics (their difference to an untraced
// run of the same seed is the tracing overhead), and wall.* on the wall
// clock.
var layerMetrics = []layerMetric{
	{"parser.facts_ms", "ms", phaseSetup, perPass},
	{"gavreduce.reduce_ms", "ms", phaseSetup, perPass},
	{"gavreduce.rewrite_ms", "ms", phaseWarm, perPass},
	{"chase.chase_ms", "ms", phaseSetup, perPass},
	{"chase.facts", "count", phaseSetup, firstPass},
	{"chase.triggers", "count", phaseSetup, firstPass},
	{"chase.rounds", "count", phaseSetup, firstPass},
	{"chase.index_probes", "count", phaseSetup, firstPass},
	{"chase.violations", "count", phaseSetup, firstPass},
	{"xr.exchange_ms", "ms", phaseSetup, perPass},
	{"xr.envelope_ms", "ms", phaseSetup, perPass},
	{"xr.clusters", "count", phaseSetup, firstPass},
	{"xr.suspect_facts", "count", phaseSetup, firstPass},
	{"cq.join_ms", "ms", phaseWarm, perPass},
	{"cq.matches", "count", phaseWarm, firstPass},
	{"xr.query_ms", "ms", phaseWarm, perPass},
	{"xr.front_ms", "ms", phaseWarm, perPass},
	{"xr.candidates", "count", phaseWarm, firstPass},
	{"xr.safe_accepted", "count", phaseWarm, firstPass},
	{"xr.programs", "count", phaseWarm, firstPass},
	{"xr.cache_hits", "count", phaseWarm, firstPass},
	{"xr.cold_query_ms", "ms", phaseCold, perPass},
	{"xr.possible_query_ms", "ms", phasePossible, perPass},
	{"xr.explain_ms", "ms", phaseExplain, perOp},
	{"asp.solve_ms", "ms", phaseWarm, perPass},
	{"asp.decisions", "count", phaseWarm, firstPass},
	{"asp.conflicts", "count", phaseWarm, firstPass},
	{"asp.propagations", "count", phaseWarm, firstPass},
	{"asp.assumption_solves", "count", phaseWarm, firstPass},
	{"asp.reused", "count", phaseWarm, firstPass},
	{"asp.cold_solve_ms", "ms", phaseCold, perPass},
	{"asp.cold_decisions", "count", phaseCold, firstPass},
	{"asp.cold_conflicts", "count", phaseCold, firstPass},
	{"asp.possible_solve_ms", "ms", phasePossible, perPass},
	{"asp.possible_decisions", "count", phasePossible, firstPass},
	{"asp.possible_conflicts", "count", phasePossible, firstPass},
	{"server.request_ms", "ms", phaseWarm, perPass},
	{"server.overhead_ms", "ms", phaseWarm, perPass},
	{"server.resp_kb", "kB", phaseWarm, firstPass},
	{"server.load_ms", "ms", phaseLoad, perOp},
	{"store.save_ms", "ms", phaseLoad, perOp},
	{"store.recover_ms", "ms", phaseFinal, perOp},
	{"runtime.alloc_mb", "MB", phaseWarm, perPass},
	{"runtime.gc_cpu_s", "s", phaseWarm, perPass},
	{"runtime.gc_cycles", "count", phaseWarm, perPass},
	{"runtime.heap_live_mb", "MB", phaseFinal, firstPass},
}

// metrics aggregates the samples into the per-layer metrics.
func (l *layerStore) metrics() map[string]metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		sums := make(map[int]float64)
		var singles []float64
		for k, vs := range l.vals {
			if k.name != m.name || k.ph != m.ph {
				continue
			}
			for _, v := range vs {
				sums[k.round] += v
			}
			singles = append(singles, vs...)
		}
		v := 0.0
		switch m.agg {
		case perPass:
			if len(sums) > 0 {
				per := make([]float64, 0, len(sums))
				for _, s := range sums {
					per = append(per, s)
				}
				v = median(per)
			}
		case firstPass:
			v = sums[0]
		case perOp:
			if len(singles) > 0 {
				v = median(singles)
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
