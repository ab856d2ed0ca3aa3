package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase names the part of a run an operation or a layer sample belongs to.
type phase string

const (
	phaseSetup    phase = "setup"
	phaseCold     phase = "cold"
	phaseWarm     phase = "warm"
	phasePossible phase = "possible"
	phaseExplain  phase = "explain"
	phaseLoad     phase = "load"
	phaseFinal    phase = "final"
)

// measured reports whether operations of the phase belong to the measured
// phase, whose latencies feed op_p50_ms, op_p90_ms and ops_per_s.
func (p phase) measured() bool {
	return p == phaseWarm || p == phasePossible || p == phaseExplain || p == phaseLoad
}

// workload is the run shape every workload fills in. Each method runs the
// operations of one part of a run through the runner, which times and
// counts them; a returned error is a fault of the harness or of its
// environment and aborts the run, while a wrong or failed answer is
// recorded with runner.fail and the run goes on.
type workload interface {
	// setup builds the exchanges or tenants of set-up i from the inputs.
	setup(r *runner, i int) error
	// certainPass asks every certain query once (ph is phaseCold or
	// phaseWarm).
	certainPass(r *runner, ph phase, round int) error
	// possiblePass asks the same queries as XR-Possible.
	possiblePass(r *runner, round int) error
	// explain asks the round's explanations.
	explain(r *runner, round int) error
	// load performs the round's write.
	load(r *runner, round int) error
	// probe, in a traced run only, calls each layer's module directly on
	// the same inputs: after set-up i (ph phaseSetup) and after each warm
	// pass (ph phaseWarm).
	probe(r *runner, ph phase, round int) error
	// teardown drops the current set-up, after end-of-cycle checks
	// (durability); final marks the end of the run.
	teardown(r *runner, final bool) error
}

// config sizes one workload. The defaults are in defaultConfig; the tests
// run the same code on tiny configurations.
type config struct {
	Name string
	// A run is a number of identical cycles: a set-up, a cold pass, then
	// Rounds measured rounds. Cycles are spread over the whole run, so a
	// burst of load on a shared machine skews few samples of any metric.
	Rounds int
	// Cycle is the measured length of one cycle on a 2-CPU machine,
	// generating the inputs included. A run makes round(--seconds /
	// Cycle) cycles, but at least minCycles and as many as minOps needs:
	// a fixed number for a given --seconds, so that every run does the
	// same work and its medians are taken over the same passes however
	// fast the machine runs that minute.
	Cycle time.Duration
	// clock times passes and operations; see cpuTime and unstolenTime.
	clock func() time.Duration

	// build makes the workload's inputs from the seed.
	build func(c *config, seed int64) (workload, error)

	Genome   genomeConfig
	Tenants  []tenantSpec
	Reload   tenantSpec
	Graphs   []graphSpec
	Explains int // explanations per round in the genome workloads
}

const (
	// minCycles keeps at least three set-ups and cold passes in a run,
	// so that their medians are not single samples.
	minCycles = 3
	// minOps is the least number of measured operations a run collects,
	// so that op_p90_ms has at least ten operations beyond it.
	minOps = 100
)

// runOptions are the command-line settings of one run.
type runOptions struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Workdir string
	Log     io.Writer
}

// result is what a run hands to the printer.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	tracer    *tracer
}

// runner times and counts operations and collects layer samples.
type runner struct {
	opts  runOptions
	clock func() time.Duration
	tr    *tracer     // nil in an untraced run
	lay   *layerStore // nil in an untraced run
	ops   atomic.Int64

	mu         sync.Mutex
	attempted  int
	failed     int
	wrong      bool
	logged     int
	opLat      []float64         // ms, measured operations
	explainLat map[int][]float64 // ms, per round
	loadLat    []float64         // ms
	round      int               // the running measured round

	pending []func() // checks queued by the running pass

	passes     map[phase][]float64 // seconds per pass on the clock, in order
	wallPasses map[phase][]float64 // wall seconds per pass, in order
	active     time.Duration       // clock time of the measured phase's passes
}

func newRunner(opts runOptions, clock func() time.Duration) *runner {
	r := &runner{
		opts:       opts,
		clock:      clock,
		passes:     make(map[phase][]float64),
		wallPasses: make(map[phase][]float64),
		explainLat: make(map[int][]float64),
	}
	if opts.Trace {
		r.tr = newTracer()
		r.lay = newLayerStore()
	}
	return r
}

// newOp returns a fresh operation identifier; all spans of one operation
// carry it.
func (r *runner) newOp() int { return int(r.ops.Add(1)) }

// opRef identifies a running operation and its root span, the parent of
// the spans its layer calls record.
type opRef struct{ id, span int }

// op runs one operation of phase ph, timing it and counting it as
// attempted, and as failed when fn returns an error. It returns the
// operation's latency.
func (r *runner) op(ph phase, name string, fn func(o opRef) error) (time.Duration, error) {
	o := opRef{id: r.newOp()}
	o.span = r.tr.begin(o.id, 0, name)
	start := r.clock()
	err := fn(o)
	d := r.clock() - start
	r.tr.end(o.span)
	r.record(ph, name, d, err)
	return d, err
}

// later queues a check to run once the current pass has been timed, so
// that checking answers never counts as work of the program.
func (r *runner) later(check func()) {
	r.mu.Lock()
	r.pending = append(r.pending, check)
	r.mu.Unlock()
}

// record counts one finished operation that the caller timed itself.
func (r *runner) record(ph phase, name string, d time.Duration, err error) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.logLocked("%s %s failed: %v", ph, name, err)
	}
	if !ph.measured() {
		return
	}
	r.opLat = append(r.opLat, ms)
	switch ph {
	case phaseExplain:
		r.explainLat[r.round] = append(r.explainLat[r.round], ms)
	case phaseLoad:
		r.loadLat = append(r.loadLat, ms)
	}
}

// fail records a wrong answer found by a check of an operation that
// itself completed: the operation counts as failed and the run as
// incorrect. Each operation is checked once, so failed never exceeds
// attempted.
func (r *runner) fail(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.wrong = true
	r.logLocked("check failed: %s: %v", what, err)
}

// extra counts an operation that is not timed (an end-of-run check).
func (r *runner) extra(what string, err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(what, err)
	}
}

func (r *runner) logLocked(format string, args ...any) {
	const maxLogged = 20
	r.logged++
	if r.logged <= maxLogged && r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "perfbench: "+format+"\n", args...)
	}
}

// pass times one pass of phase ph after a forced garbage collection, so
// that no pass pays for the garbage of the one before.
func (r *runner) pass(ph phase, round int, fn func() error) error {
	runtime.GC()
	before := readRuntime()
	start, wall := r.clock(), time.Now()
	err := fn()
	d, dWall := r.clock()-start, time.Since(wall)
	if err != nil {
		return err
	}
	traceGC := r.lay != nil && ph == phaseWarm
	if traceGC {
		// A pass rarely fills the heap to its goal, so its garbage is
		// collected by the forced collection that follows it, outside
		// every pass time: the runtime samples of a warm pass include that
		// collection.
		runtime.GC()
	}
	after := readRuntime()
	r.mu.Lock()
	checks := r.pending
	r.pending = nil
	r.mu.Unlock()
	for _, check := range checks {
		check()
	}
	r.passes[ph] = append(r.passes[ph], d.Seconds())
	r.wallPasses[ph] = append(r.wallPasses[ph], dWall.Seconds())
	if ph.measured() {
		r.active += d
	}
	if traceGC {
		r.add(ph, round, "runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20))
		r.add(ph, round, "runtime.gc_cpu_s", after.gcCPU-before.gcCPU)
		r.add(ph, round, "runtime.gc_cycles", after.gcCycles-before.gcCycles)
	}
	return nil
}

// add records one layer sample (a no-op in an untraced run).
func (r *runner) add(ph phase, round int, name string, v float64) {
	if r.lay != nil {
		r.lay.add(ph, round, name, v)
	}
}

// runWorkload makes the inputs from the seed and runs the workload's
// cycles: each a set-up, its cold pass and whole measured rounds.
func runWorkload(cfg config, opts runOptions) (*result, error) {
	w, err := cfg.build(&cfg, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("making inputs: %w", err)
	}
	r := newRunner(opts, cfg.clock)
	var heapSetup []float64
	cycles := max(minCycles, int(math.Round(float64(opts.Seconds)/float64(cfg.Cycle))))
	round := 0
	for i := 0; i < cycles; i++ {
		if i > 0 {
			if err := w.teardown(r, false); err != nil {
				return nil, err
			}
		}
		if err := r.pass(phaseSetup, i, func() error { return w.setup(r, i) }); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		heapSetup = append(heapSetup, liveHeapMB())
		if r.lay != nil {
			if err := w.probe(r, phaseSetup, i); err != nil {
				return nil, fmt.Errorf("probing set-up %d: %w", i, err)
			}
		}
		if err := r.pass(phaseCold, i, func() error { return w.certainPass(r, phaseCold, i) }); err != nil {
			return nil, fmt.Errorf("cold pass %d: %w", i, err)
		}
		for k := 0; k < cfg.Rounds; k++ {
			if err := r.measuredRound(w, round); err != nil {
				return nil, err
			}
			round++
		}
		if i == 0 && len(r.opLat) > 0 {
			// Every cycle runs the same operations.
			cycles = max(cycles, (minOps+len(r.opLat)-1)/len(r.opLat))
		}
	}
	heapEnd := liveHeapMB()
	if err := w.teardown(r, true); err != nil {
		return nil, err
	}
	r.add(phaseFinal, 0, "runtime.heap_live_mb", heapEnd)

	res := &result{
		correct:   !r.wrong,
		attempted: r.attempted,
		failed:    r.failed,
		tracer:    r.tr,
	}
	e2e := r.endToEnd(heapSetup, heapEnd)
	if r.lay == nil {
		res.metrics = e2e
		return res, nil
	}
	res.metrics = r.lay.metrics()
	for ph, n := range passMetrics {
		res.metrics["traced."+n] = e2e[n]
		res.metrics["wall."+n] = metric{median(r.wallPasses[ph]), "s"}
	}
	return res, nil
}

// measuredRound runs one round: a warm certain pass, a possible pass, the
// explanations and the load.
func (r *runner) measuredRound(w workload, round int) error {
	r.round = round
	steps := []struct {
		ph phase
		fn func() error
	}{
		{phaseWarm, func() error { return w.certainPass(r, phaseWarm, round) }},
		{phasePossible, func() error { return w.possiblePass(r, round) }},
		{phaseExplain, func() error { return w.explain(r, round) }},
		{phaseLoad, func() error { return w.load(r, round) }},
	}
	for _, s := range steps {
		if err := r.pass(s.ph, round, s.fn); err != nil {
			return fmt.Errorf("%s round %d: %w", s.ph, round, err)
		}
		if s.ph == phaseWarm && r.lay != nil {
			if err := w.probe(r, phaseWarm, round); err != nil {
				return fmt.Errorf("probing warm pass %d: %w", round, err)
			}
		}
	}
	return nil
}

// passMetrics names the end-to-end metric of each timed pass.
var passMetrics = map[phase]string{
	phaseSetup:    "setup_s",
	phaseCold:     "cold_pass_s",
	phaseWarm:     "warm_pass_s",
	phasePossible: "possible_pass_s",
}

// endToEnd derives the end-to-end metrics from the recorded passes and
// operations.
func (r *runner) endToEnd(heapSetup []float64, heapEnd float64) map[string]metric {
	p90, _ := nearestRank(r.opLat, 0.9)
	return map[string]metric{
		"setup_s":         {median(r.passes[phaseSetup]), "s"},
		"cold_pass_s":     {median(r.passes[phaseCold]), "s"},
		"warm_pass_s":     {median(r.passes[phaseWarm]), "s"},
		"possible_pass_s": {median(r.passes[phasePossible]), "s"},
		"explain_ms":      {median(roundMeans(r.explainLat)), "ms"},
		"load_ms":         {median(r.loadLat), "ms"},
		"ops_per_s":       {float64(len(r.opLat)) / r.active.Seconds(), "1/s"},
		"op_p50_ms":       {median(r.opLat), "ms"},
		"op_p90_ms":       {p90, "ms"},
		"heap_setup_mb":   {median(heapSetup), "MB"},
		"heap_end_mb":     {heapEnd, "MB"},
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundMeans returns the mean of each round's samples. A round asks
// explanations of different costs; the median of the per-round means does
// not jump between them the way the median of single latencies can.
func roundMeans(byRound map[int][]float64) []float64 {
	out := make([]float64, 0, len(byRound))
	for _, xs := range byRound {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		out = append(out, sum/float64(len(xs)))
	}
	return out
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule, and
// how many samples lie beyond it.
func nearestRank(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

// runtimeReading is a snapshot of the Go runtime's cumulative counters.
type runtimeReading struct {
	allocBytes float64
	gcCPU      float64
	gcCycles   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: sampleValue(s[0]),
		gcCPU:      sampleValue(s[1]),
		gcCycles:   sampleValue(s[2]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// liveHeapMB forces a garbage collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleValue(s[0]) / (1 << 20)
}

// cpuTime returns the CPU time the process has used, user and system, in
// all its threads. The single-client workloads time passes and operations
// with it rather than with the wall clock: on a virtual machine whose host
// steals CPU from it, wall times of the same work moved by a third within a
// minute, while the guest leaves stolen time out of a process's CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var wallEpoch = time.Now()

// unstolenTime returns the wall time since the process started less the
// machine's stolen time (steal in /proc/stat) divided among its CPUs. The
// workload with concurrent clients times passes and operations with it:
// unlike CPU time it counts waiting (a lock, a full lane pool, an fsync),
// and it leaves out most of the CPU the host takes away. Where /proc/stat
// cannot be read it is the plain wall clock.
func unstolenTime() time.Duration {
	return time.Since(wallEpoch) - stolenTime()
}

// stolenTime returns the machine's cumulative steal time divided by its
// number of CPUs, or 0 where /proc/stat cannot be read.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal int64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		if len(f) < 9 {
			return 0
		}
		// cpu user nice system idle iowait irq softirq steal, in 1/100 s.
		if steal, err = strconv.ParseInt(f[8], 10, 64); err != nil {
			return 0
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(steal) * 10 * time.Millisecond / time.Duration(cpus)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
