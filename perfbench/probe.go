package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/gavreduce"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/symtab"
	"repro/internal/xr"
)

// This file holds the traced run's layer probes: calls into each module's
// public functions, made by the benchmark on the same inputs the workload
// runs, so that the time of a layer the library call hides (reduce, chase,
// envelopes, rewrite, the join under candidate collection) can be read on
// its own.

// probeInput is one mapping, fact file and query file.
type probeInput struct {
	Mapping string
	Facts   string
	Queries string
}

// probed is the internal exchange one probe built, kept for the query
// phase probes.
type probed struct {
	ex      *xr.Exchange
	queries []*logic.UCQ
}

// probeExchange times the exchange-phase layers on one input, in the
// order the exchange runs them: parse the facts, reduce the mapping, chase
// with provenance, then the whole exchange, whose envelope part is what
// remains after reduce and chase.
func probeExchange(r *runner, round int, in probeInput) (*probed, error) {
	o := r.newOp()
	root := r.tr.begin(o, 0, "probe")
	defer r.tr.end(root)
	w, err := parser.ParseMapping(in.Mapping)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sp := r.tr.begin(o, root, "parser")
	src, err := parser.ParseFacts(in.Facts, w)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.add(phaseSetup, round, "parser.facts_ms", msSince(t))

	t = time.Now()
	sp = r.tr.begin(o, root, "gavreduce.reduce")
	red, err := gavreduce.Reduce(w.M)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	reduce := msSince(t)

	var st chase.Stats
	t = time.Now()
	sp = r.tr.begin(o, root, "chase")
	prov, err := chase.GAVWithOptions(red.M, src, chase.Options{Stats: &st})
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	chased := msSince(t)

	t = time.Now()
	sp = r.tr.begin(o, root, "xr.exchange")
	ex, err := xr.NewExchange(w.M, src)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	exchange := msSince(t)

	r.add(phaseSetup, round, "gavreduce.reduce_ms", reduce)
	r.add(phaseSetup, round, "chase.chase_ms", chased)
	r.add(phaseSetup, round, "chase.facts", float64(prov.NumFacts()))
	r.add(phaseSetup, round, "chase.triggers", float64(st.Triggers))
	r.add(phaseSetup, round, "chase.rounds", float64(st.Rounds))
	r.add(phaseSetup, round, "chase.index_probes", float64(prov.Instance.IndexProbes()))
	r.add(phaseSetup, round, "chase.violations", float64(len(prov.Violations)))
	r.add(phaseSetup, round, "xr.exchange_ms", exchange)
	r.add(phaseSetup, round, "xr.envelope_ms", exchange-reduce-chased)
	r.add(phaseSetup, round, "xr.clusters", float64(ex.Stats.Clusters))
	r.add(phaseSetup, round, "xr.suspect_facts", float64(ex.SuspectSourceFacts()))

	qs, err := parser.ParseQueries(in.Queries, w)
	if err != nil {
		return nil, err
	}
	return &probed{ex: ex, queries: qs}, nil
}

// probeQueries times, for every query, the rewrite into the reduced
// schema and the join under candidate collection: each rewritten clause
// compiled and enumerated over the quasi-solution.
func (p *probed) probeQueries(r *runner, round int) error {
	o := r.newOp()
	root := r.tr.begin(o, 0, "probe")
	defer r.tr.end(root)
	for _, q := range p.queries {
		t := time.Now()
		sp := r.tr.begin(o, root, "gavreduce.rewrite")
		rq, err := p.ex.Red.RewriteQuery(q)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("rewriting %s: %w", q.Name, err)
		}
		r.add(phaseWarm, round, "gavreduce.rewrite_ms", msSince(t))

		t = time.Now()
		sp = r.tr.begin(o, root, "cq.join")
		matches := 0
		for ci := range rq.Clauses {
			plan := cq.Compile(rq.Clauses[ci].Body)
			plan.ForEach(p.ex.Prov.Instance, func([]symtab.Value) bool {
				matches++
				return true
			})
		}
		r.tr.end(sp)
		r.add(phaseWarm, round, "cq.join_ms", msSince(t))
		r.add(phaseWarm, round, "cq.matches", float64(matches))
	}
	return nil
}

// solveAcc sums the engine's solve events of one library call.
type solveAcc struct {
	r      *runner
	op     int
	parent int
	reused int
	dur    time.Duration
	dec    int64
	conf   int64
	props  int64
	assume int64
}

// hook returns the solver-trace option feeding acc. The engine calls it
// once per solved signature program, when the solve ends; the benchmark
// places the solve's span there.
func (acc *solveAcc) hook() repro.Option {
	return repro.WithSolverTrace(func(ev repro.TraceEvent) {
		end := time.Now()
		acc.r.tr.add(acc.op, acc.parent, "asp.solve", end.Add(-ev.Duration), end)
		if ev.SolverReused {
			acc.reused++
		}
		acc.dur += ev.Duration
		acc.dec += ev.Decisions
		acc.conf += ev.Conflicts
		acc.props += ev.Propagations
		acc.assume += ev.AssumptionSolves
	})
}

// engineTotals is what one query call, or one pass of them, cost the
// engine, as its answers and solve events report it.
type engineTotals struct {
	queryMS, solveMS                 float64
	dec, conf, props, assume, reused int64
	cand, safe, progs, hits          int
}

// addAnswers adds the query counters of one call's answers.
func (e *engineTotals) addAnswers(a *repro.Answers) {
	e.queryMS += float64(a.Duration) / float64(time.Millisecond)
	e.cand += a.Candidates
	e.safe += a.SafeAccepted
	e.progs += a.Programs
	e.hits += a.CacheHits
}

// record stores the totals of a traced run under the names of the pass
// they ran in.
func (e *engineTotals) record(r *runner, ph phase, round int) {
	switch ph {
	case phaseCold:
		r.add(ph, round, "xr.cold_query_ms", e.queryMS)
		r.add(ph, round, "asp.cold_solve_ms", e.solveMS)
		r.add(ph, round, "asp.cold_decisions", float64(e.dec))
		r.add(ph, round, "asp.cold_conflicts", float64(e.conf))
	case phasePossible:
		r.add(ph, round, "xr.possible_query_ms", e.queryMS)
		r.add(ph, round, "asp.possible_solve_ms", e.solveMS)
		r.add(ph, round, "asp.possible_decisions", float64(e.dec))
		r.add(ph, round, "asp.possible_conflicts", float64(e.conf))
	case phaseWarm:
		r.add(ph, round, "xr.query_ms", e.queryMS)
		r.add(ph, round, "xr.front_ms", e.queryMS-e.solveMS)
		r.add(ph, round, "xr.candidates", float64(e.cand))
		r.add(ph, round, "xr.safe_accepted", float64(e.safe))
		r.add(ph, round, "xr.programs", float64(e.progs))
		r.add(ph, round, "xr.cache_hits", float64(e.hits))
		r.add(ph, round, "asp.solve_ms", e.solveMS)
		r.add(ph, round, "asp.decisions", float64(e.dec))
		r.add(ph, round, "asp.conflicts", float64(e.conf))
		r.add(ph, round, "asp.propagations", float64(e.props))
		r.add(ph, round, "asp.assumption_solves", float64(e.assume))
		r.add(ph, round, "asp.reused", float64(e.reused))
	}
}

// libraryQuery runs one library query call as an operation of phase ph,
// feeding the solve hook in a traced run. It returns nil when the call
// failed, which the runner has counted.
func libraryQuery(r *runner, ph phase, round int, name string, call func(...repro.Option) (*repro.Answers, error)) *repro.Answers {
	var ans *repro.Answers
	var d time.Duration
	var acc *solveAcc
	_, err := r.op(ph, name, func(o opRef) error {
		var opts []repro.Option
		sp := r.tr.begin(o.id, o.span, "xr.query")
		if r.lay != nil {
			acc = &solveAcc{r: r, op: o.id, parent: sp}
			opts = append(opts, acc.hook())
		}
		start := time.Now()
		var err error
		ans, err = call(opts...)
		d = time.Since(start)
		r.tr.end(sp)
		return err
	})
	if err != nil {
		return nil
	}
	if acc != nil {
		e := engineTotals{
			solveMS: float64(acc.dur) / float64(time.Millisecond),
			dec:     acc.dec, conf: acc.conf, props: acc.props, assume: acc.assume, reused: int64(acc.reused),
		}
		e.addAnswers(ans)
		// The call's own duration, which includes rendering the answers.
		e.queryMS = float64(d) / float64(time.Millisecond)
		e.record(r, ph, round)
	}
	return ans
}

// libraryExplain runs one library explanation as an operation. It returns
// nil when the call failed, which the runner has counted.
func libraryExplain(r *runner, round int, name string, call func() (*repro.Explanation, error)) *repro.Explanation {
	var e *repro.Explanation
	_, err := r.op(phaseExplain, name, func(o opRef) error {
		sp := r.tr.begin(o.id, o.span, "xr.explain")
		start := time.Now()
		var err error
		e, err = call()
		r.add(phaseExplain, round, "xr.explain_ms", msSince(start))
		r.tr.end(sp)
		return err
	})
	if err != nil {
		return nil
	}
	return e
}

// libraryExchange parses a fact text and runs the exchange phase through
// the library, recording both calls as spans of operation o.
func libraryExchange(r *runner, o opRef, sys *repro.System, facts string) (*repro.Exchange, error) {
	sp := r.tr.begin(o.id, o.span, "parser")
	in, err := sys.ParseFacts(facts)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin(o.id, o.span, "xr.exchange")
	ex, err := sys.NewExchange(in)
	r.tr.end(sp)
	return ex, err
}
