package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro"
)

// tinyConfig shrinks a workload to a size that runs in a second or two,
// also under the race detector.
func tinyConfig(t *testing.T, name string) config {
	t.Helper()
	cfg, ok := defaultConfig(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg.Rounds, cfg.Cycle = 1, time.Hour
	switch name {
	case "l20-suite":
		cfg.Genome = genomeConfig{"L20", 0.003}
	case "serve-mix":
		cfg.Tenants = []tenantSpec{
			{Name: "L9", Genome: genomeConfig{"L9", 0.003}, Client: 0, Explains: 2},
			{Name: "L0", Genome: genomeConfig{"L0", 0.003}, Client: 1, Explains: 1},
		}
		cfg.Reload = tenantSpec{Name: "R3", Genome: genomeConfig{"L3", 0.003}, Client: 1}
	case "tricolor":
		// More rounds per cycle, so that the run reaches minOps measured
		// operations in few cycles.
		cfg.Rounds = 5
		cfg.Graphs = []graphSpec{
			{Name: "K3", Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}, Explain: true},
			{Name: "C4", Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		}
	}
	return cfg
}

func runTiny(t *testing.T, cfg config, trace bool) *result {
	t.Helper()
	res, err := runWorkload(cfg, runOptions{
		Seed:    3,
		Seconds: time.Second,
		Trace:   trace,
		Workdir: t.TempDir(),
		Log:     testLog{t},
	})
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return res
}

// testLog sends the harness's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

var endToEndNames = []string{"setup_s", "cold_pass_s", "warm_pass_s", "possible_pass_s", "explain_ms",
	"load_ms", "ops_per_s", "op_p50_ms", "op_p90_ms", "heap_setup_mb", "heap_end_mb"}

// TestWorkloads runs every workload once untraced and twice traced with
// the same seed. Each run must report every metric with no failed
// operation, and the two traced runs must report identical per-layer
// counts.
func TestWorkloads(t *testing.T) {
	for _, name := range []string{"l20-suite", "serve-mix", "tricolor"} {
		t.Run(name, func(t *testing.T) {
			var traced []map[string]metric
			for _, trace := range []bool{false, true, true} {
				res := runTiny(t, tinyConfig(t, name), trace)
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.correct, res.attempted, res.failed)
				}
				want := endToEndNames
				if trace {
					want = nil
					for _, m := range layerMetrics {
						want = append(want, m.name)
					}
					traced = append(traced, res.metrics)
				}
				for _, m := range want {
					if v, ok := res.metrics[m]; !ok || v.Value != v.Value {
						t.Errorf("trace=%v: metric %s missing or NaN: %+v", trace, m, v)
					}
				}
			}
			for _, m := range layerMetrics {
				// runtime.* follows GC pacing; the possible-pass solver
				// counts of the L20 workloads are the engine's known
				// exception (README.md).
				if m.unit != "count" || strings.HasPrefix(m.name, "runtime.") || knownDeviation(name, m.name) {
					continue
				}
				if a, b := traced[0][m.name], traced[1][m.name]; a != b {
					t.Errorf("%s: %v then %v", m.name, a.Value, b.Value)
				}
			}
		})
	}
}

// knownDeviation reports the counts that do not repeat because of the
// engine fault README.md names, as steady.py's KNOWN_DEVIATIONS lists them.
func knownDeviation(workload, metric string) bool {
	return (workload == "l20-suite" || workload == "serve-mix") &&
		(metric == "asp.possible_decisions" || metric == "asp.possible_conflicts")
}

func testGenome() *genomeInput {
	return &genomeInput{Name: "test", Transcripts: 6, Suspects: 2}
}

func TestGenomeChecksRejectCorruptAnswers(t *testing.T) {
	in := testGenome()
	good := in.transcriptSet("xr2", 2)
	b := newAnswerBook(in, nil)
	if err := b.checkCertain("xr2", good); err != nil {
		t.Fatalf("correct xr2 answers rejected: %v", err)
	}
	cases := map[string][][]string{
		"missing answer": good[1:],
		"suspect answer": in.transcriptSet("xr2", 1),
		"wrong id form":  in.transcriptSet("ep2", 2),
	}
	for name, rows := range cases {
		if err := newAnswerBook(in, nil).checkCertain("xr2", rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := b.checkCertain("ep1", nil); err == nil {
		t.Error("ep1 false: accepted")
	}
	// A later pass must repeat the first one.
	if err := b.checkCertain("xr3", [][]string{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.checkCertain("xr3", [][]string{{"b"}}); err == nil {
		t.Error("changed answers on a later pass: accepted")
	}
	// Possible answers: all transcripts, and a superset of the certain ones.
	if err := b.checkPossible("xr2", in.transcriptSet("xr2", 0)); err != nil {
		t.Fatalf("correct possible answers rejected: %v", err)
	}
	if err := newAnswerBook(in, nil).checkPossible("xr2", in.transcriptSet("xr2", 0)); err == nil {
		t.Error("possible answers with no certain answers to compare: accepted")
	}
	if err := b.checkPossible("xr2", in.transcriptSet("xr2", 1)); err == nil {
		t.Error("possible xr2 missing a transcript: accepted")
	}
	if err := b.checkPossible("xr3", [][]string{{"c"}}); err == nil {
		t.Error("certain answer not possible: accepted")
	}
}

func TestPlainCertainCheck(t *testing.T) {
	in, err := makeGenome(genomeConfig{"L0", 0.003}, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainCertain(in.Facts)
	if err != nil {
		t.Fatal(err)
	}
	if plain["xr2"] != fingerprint(in.transcriptSet("xr2", 0)) {
		t.Fatal("plain certain xr2 answers of a consistent instance are not every transcript")
	}
	b := newAnswerBook(in, plain)
	if err := b.checkCertain("xr5", [][]string{{"uc000000.1"}}); err == nil {
		t.Error("answers differing from the plain certain answers: accepted")
	}
}

func TestVerdictCheck(t *testing.T) {
	in := testGenome()
	b := newAnswerBook(in, nil)
	if err := b.checkCertain("xr2", in.transcriptSet("xr2", 2)); err != nil {
		t.Fatal(err)
	}
	safe := explainTarget{Query: "xr2", Tuple: []string{transcriptID("xr2", 4)}}
	suspect := explainTarget{Query: "xr2", Tuple: []string{transcriptID("xr2", 0)}}
	if err := b.checkVerdict(safe, "safe"); err != nil {
		t.Errorf("safe answer explained as safe: %v", err)
	}
	if err := b.checkVerdict(suspect, "rejected"); err != nil {
		t.Errorf("suspect tuple explained as rejected: %v", err)
	}
	for _, v := range []string{"rejected", "unknown"} {
		if err := b.checkVerdict(safe, v); err == nil {
			t.Errorf("answer explained as %q: accepted", v)
		}
	}
	if err := b.checkVerdict(suspect, "certain"); err == nil {
		t.Error("non-answer explained as certain: accepted")
	}
}

func expl(verdict, text string) *repro.Explanation {
	return &repro.Explanation{Verdict: verdict, Text: text}
}

func TestTricolorChecks(t *testing.T) {
	k4 := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if colourable(4, k4) || !colourable(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}) {
		t.Fatal("brute-force colouring is wrong on K4 or C5")
	}
	g := &gadgetGraph{spec: graphSpec{Name: "K3", Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		names: []string{"a", "b", "c"}, colourable: true}
	text := func(kept string) string {
		return "q(): rejected\n  keeps (suspect): E(a,b,n1,n2); " + kept + "\n"
	}
	good := expl("rejected", text("Cr(a); Cg(b); Cb(c)"))
	if err := g.checkExplanation(good); err != nil {
		t.Fatalf("proper colouring rejected: %v", err)
	}
	bad := map[string]*repro.Explanation{
		"verdict":        expl("certain", ""),
		"clash":          expl("rejected", text("Cr(a); Cr(b); Cb(c)")),
		"uncoloured":     expl("rejected", text("Cr(a); Cg(b)")),
		"truncated list": expl("rejected", text("Cr(a); Cg(b); ... (+1 more)")),
	}
	for name, e := range bad {
		if err := g.checkExplanation(e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCorruptExpectationsFail runs each workload with an expectation
// broken on purpose, and requires the run to report failed operations
// and correct=false.
func TestCorruptExpectationsFail(t *testing.T) {
	corrupt := map[string]func(w workload){
		"l20-suite": func(w workload) { w.(*suite).in.Suspects++ },
		"serve-mix": func(w workload) { w.(*serveMix).tenants[0].in.Suspects-- },
		"tricolor": func(w workload) {
			g := w.(*tricolor).graphs[0]
			g.colourable = !g.colourable
		},
	}
	for name, spoil := range corrupt {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			build := cfg.build
			cfg.build = func(c *config, seed int64) (workload, error) {
				w, err := build(c, seed)
				if err == nil {
					spoil(w)
				}
				return w, err
			}
			res := runTiny(t, cfg, false)
			if res.correct || res.failed == 0 {
				t.Fatalf("correct=%v failed=%d, want failures", res.correct, res.failed)
			}
		})
	}
}

func TestDurabilityCheckFailsOnLostWrite(t *testing.T) {
	cfg := tinyConfig(t, "serve-mix")
	w, err := cfg.build(&cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := w.(*serveMix)
	r := newRunner(runOptions{Workdir: t.TempDir(), Log: io.Discard}, cfg.clock)
	if err := s.setup(r, 0); err != nil {
		t.Fatal(err)
	}
	// Claim an acknowledged version the server never saw.
	s.acked[s.reload.spec.Name] = s.reloadFacts(7)
	if err := s.teardown(r, true); err != nil {
		t.Fatal(err)
	}
	if !r.wrong || r.failed != 1 {
		t.Fatalf("wrong=%v failed=%d, want the durability check to fail once", r.wrong, r.failed)
	}
}

func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "tricolor", "--trace", "2"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("bad --trace: exit %d, stdout %q", code, out.String())
	}
}
