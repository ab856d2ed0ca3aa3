// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads from a single process and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload has the same shape: repeated set-ups, each followed by a
// cold pass over the workload's certain queries, then whole rounds of a
// warm certain pass, a possible pass, a few explanations and one load (a
// write). --seconds fixes the number of cycles from their measured length,
// so a run lasts about that long on a 2-CPU machine. Every answer is
// checked against a computation made apart from the engine, or against a
// property the method must have; a failed check counts as a failed
// operation.
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same run records spans around every call into a layer and reports the
// per-layer metrics instead. See README.md for the workloads, the metrics
// and what each layer metric should move.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload l20-suite --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: l20-suite, serve-mix or tricolor")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 36, "length of the run in seconds on a 2-CPU machine; fixes the number of cycles")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the store's data and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg, ok := defaultConfig(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want l20-suite, serve-mix or tricolor)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := runOptions{
		Seed:    *seed,
		Seconds: time.Duration(*seconds) * time.Second,
		Trace:   *trace == 1,
		Workdir: *workdir,
		Log:     stderr,
	}
	res, err := runWorkload(cfg, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Name, err)
		return 1
	}
	if opts.Trace {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Name, *seed))
		if err := res.tracer.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", res.tracer.len(), path)
		res.tracer.printSelfTimes(stderr)
	}
	return printResult(stdout, res)
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(stdout io.Writer, res *result) int {
	line, err := json.Marshal(report{
		Correct:   res.correct,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	// A human-readable table first; the JSON object stays the last line.
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(stdout, "# %-26s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
