package main

import (
	"fmt"

	"repro"
	"repro/internal/genome"
)

// suite is the l20-suite workload: the library API on one genome
// instance, running the Table 3 query suite sequentially, as the library
// does by default. Its load parses the same fact text and builds a second
// exchange, which is then dropped.
type suite struct {
	sys     *repro.System
	in      *genomeInput
	queries []*repro.Query
	book    *answerBook
	targets []explainTarget

	ex     *repro.Exchange
	probed *probed
}

func buildSuite(c *config, seed int64) (workload, error) {
	in, err := makeGenome(c.Genome, seed)
	if err != nil {
		return nil, err
	}
	sys, err := repro.Load(genome.MappingText)
	if err != nil {
		return nil, err
	}
	qs, err := sys.ParseQueries(genome.QueriesText)
	if err != nil {
		return nil, err
	}
	return &suite{
		sys:     sys,
		in:      in,
		queries: qs,
		book:    newAnswerBook(in, nil),
		targets: explainTargets(in, seed, c.Explains),
	}, nil
}

func (s *suite) setup(r *runner, i int) error {
	_, err := r.op(phaseSetup, "setup", func(o opRef) error {
		ex, err := libraryExchange(r, o, s.sys, s.in.Facts)
		s.ex = ex
		return err
	})
	return err
}

func (s *suite) probe(r *runner, ph phase, round int) error {
	if ph == phaseSetup {
		p, err := probeExchange(r, round, probeInput{genome.MappingText, s.in.Facts, genome.QueriesText})
		s.probed = p
		return err
	}
	return s.probed.probeQueries(r, round)
}

// ask runs one query as an operation of phase ph and queues its check.
func (s *suite) ask(r *runner, ph phase, round int, q *repro.Query) {
	possible := ph == phasePossible
	kind := "certain "
	call := func(opts ...repro.Option) (*repro.Answers, error) { return s.ex.Answer(q, opts...) }
	if possible {
		kind = "possible "
		call = func(opts ...repro.Option) (*repro.Answers, error) { return s.ex.Possible(q, opts...) }
	}
	ans := libraryQuery(r, ph, round, kind+q.Name(), call)
	if ans == nil {
		return
	}
	r.later(func() {
		var err error
		if possible {
			err = s.book.checkPossible(q.Name(), ans.Tuples)
		} else {
			err = s.book.checkCertain(q.Name(), ans.Tuples)
		}
		if err == nil && ans.Partial() {
			err = fmt.Errorf("%s: partial answers", q.Name())
		}
		if err != nil {
			r.fail(s.in.Name+" "+kind+q.Name(), err)
		}
	})
}

func (s *suite) certainPass(r *runner, ph phase, round int) error {
	for _, q := range s.queries {
		s.ask(r, ph, round, q)
	}
	return nil
}

func (s *suite) possiblePass(r *runner, round int) error {
	for _, q := range s.queries {
		s.ask(r, phasePossible, round, q)
	}
	return nil
}

func (s *suite) query(name string) *repro.Query {
	for _, q := range s.queries {
		if q.Name() == name {
			return q
		}
	}
	return nil
}

func (s *suite) explain(r *runner, round int) error {
	for _, t := range s.targets {
		e := libraryExplain(r, round, "explain "+t.Query, func() (*repro.Explanation, error) {
			return s.ex.Why(s.query(t.Query), t.Tuple)
		})
		if e == nil {
			continue
		}
		r.later(func() {
			if err := s.book.checkVerdict(t, e.Verdict); err != nil {
				r.fail(s.in.Name+" explain", err)
			}
		})
	}
	return nil
}

func (s *suite) load(r *runner, round int) error {
	var ex *repro.Exchange
	_, err := r.op(phaseLoad, "load", func(o opRef) error {
		var err error
		ex, err = libraryExchange(r, o, s.sys, s.in.Facts)
		return err
	})
	if err != nil {
		return nil
	}
	got, want := ex.Stats(), s.ex.Stats()
	r.later(func() {
		if got.TotalFacts != want.TotalFacts || got.Violations != want.Violations || got.Clusters != want.Clusters {
			r.fail(s.in.Name+" load", fmt.Errorf("reloaded exchange has %d facts, %d violations, %d clusters; want %d, %d, %d",
				got.TotalFacts, got.Violations, got.Clusters, want.TotalFacts, want.Violations, want.Clusters))
		}
	})
	return nil
}

func (s *suite) teardown(r *runner, final bool) error {
	s.ex, s.probed = nil, nil
	return nil
}
