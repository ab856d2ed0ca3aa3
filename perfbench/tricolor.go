package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
)

// gadget is the Theorem 3 reduction from 3-colourability, as in
// examples/tricolor: a graph G is 3-colourable iff some source repair of
// its instance I_G omits the cycle-closing fact F(n,1), so the boolean
// query asking for F's marker is XR-certain iff G is not 3-colourable.
const gadget = `
source E(x, y, u, v).
source Cr(x).
source Cg(x).
source Cb(x).
source F(u, v).
target E1(x, y).
target F1(u, v).
target Fsrc(u, v).
target Cr1(x).
target Cg1(x).
target Cb1(x).

tgd E(x, y, u, v) & Cr(x) -> E1(x, y).
tgd E(x, y, u, v) & Cg(x) -> E1(x, y).
tgd E(x, y, u, v) & Cb(x) -> E1(x, y).
tgd E(x, y, u, v) & Cr(x) -> F1(u, v).
tgd E(x, y, u, v) & Cg(x) -> F1(u, v).
tgd E(x, y, u, v) & Cb(x) -> F1(u, v).
tgd Cr(x) -> Cr1(x).
tgd Cg(x) -> Cg1(x).
tgd Cb(x) -> Cb1(x).
tgd F(u, v) -> F1(u, v).
tgd F(u, v) -> Fsrc(u, v).
tgd trans: F1(u, v) & F1(v, w) -> F1(u, w).

egd E1(x, y) & Cr1(x) & Cr1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cg1(x) & Cg1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cb1(x) & Cb1(y) & F1(u, v) -> u = v.
egd F1(u, u) & F1(v, w) -> v = w.
`

// graphSpec is one graph of the tricolor workload: edges over vertices
// 0..n-1, in the order they are encoded.
type graphSpec struct {
	Name  string
	Edges [][2]int
	// Explain asks Why on the graph's query in every round.
	Explain bool
}

// gadgetGraph is one encoded graph with everything the checks need.
type gadgetGraph struct {
	spec       graphSpec
	names      []string // vertex names
	facts      string
	query      string
	q          *repro.Query
	colourable bool // found by brute force, apart from the engine
	ex         *repro.Exchange
	probed     *probed
}

// tricolor is the tricolor workload: one exchange per gadget, where the
// solver does nearly all the work.
type tricolor struct {
	sys    *repro.System
	graphs []*gadgetGraph
	loadG  *gadgetGraph
}

func buildTricolor(c *config, seed int64) (workload, error) {
	sys, err := repro.Load(gadget)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	t := &tricolor{sys: sys}
	for gi, spec := range c.Graphs {
		g, err := encodeGraph(spec, gi, rng)
		if err != nil {
			return nil, err
		}
		qs, err := sys.ParseQueries(g.query)
		if err != nil {
			return nil, err
		}
		g.q = qs[0]
		t.graphs = append(t.graphs, g)
	}
	t.loadG = t.graphs[len(t.graphs)-1]
	return t, nil
}

// encodeGraph renders the instance I_G. The seed draws the vertex names;
// the edge order and orientation are fixed, because the solver's work on a
// gadget moves several-fold with them.
func encodeGraph(spec graphSpec, gi int, rng *rand.Rand) (*gadgetGraph, error) {
	n := 0
	for _, e := range spec.Edges {
		n = max(n, e[0]+1, e[1]+1)
	}
	g := &gadgetGraph{spec: spec}
	for v := 0; v < n; v++ {
		var suffix [3]byte
		for i := range suffix {
			suffix[i] = byte('a' + rng.Intn(26))
		}
		g.names = append(g.names, fmt.Sprintf("g%dv%d%s", gi, v, suffix[:]))
	}
	// Orient greedily so that every vertex gates a chain link (see
	// examples/tricolor).
	var b strings.Builder
	hasOut := make([]bool, n)
	for i, e := range spec.Edges {
		x, y := e[0], e[1]
		if hasOut[x] && !hasOut[y] {
			x, y = y, x
		}
		hasOut[x] = true
		fmt.Fprintf(&b, "E(%s, %s, n%d, n%d).\n", g.names[x], g.names[y], i+1, i+2)
	}
	for v := 0; v < n; v++ {
		if !hasOut[v] {
			return nil, fmt.Errorf("graph %s: no orientation gives vertex %d an outgoing edge", spec.Name, v)
		}
	}
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "Cr(%s). Cg(%s). Cb(%s).\n", g.names[v], g.names[v], g.names[v])
	}
	m := len(spec.Edges)
	fmt.Fprintf(&b, "F(n%d, n1).\n", m+1)
	g.facts = b.String()
	g.query = fmt.Sprintf("inAllRepairs() :- Fsrc(n%d, n1).", m+1)
	g.colourable = colourable(n, spec.Edges)
	return g, nil
}

// colourable searches all 3^n colourings.
func colourable(n int, edges [][2]int) bool {
	col := make([]int, n)
	var try func(v int) bool
	try = func(v int) bool {
		if v == n {
			for _, e := range edges {
				if col[e[0]] == col[e[1]] {
					return false
				}
			}
			return true
		}
		for c := 0; c < 3; c++ {
			col[v] = c
			if try(v + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

func (t *tricolor) setup(r *runner, i int) error {
	_, err := r.op(phaseSetup, "setup", func(o opRef) error {
		for _, g := range t.graphs {
			ex, err := libraryExchange(r, o, t.sys, g.facts)
			if err != nil {
				return fmt.Errorf("graph %s: %w", g.spec.Name, err)
			}
			g.ex = ex
		}
		return nil
	})
	return err
}

func (t *tricolor) probe(r *runner, ph phase, round int) error {
	for _, g := range t.graphs {
		if ph == phaseSetup {
			p, err := probeExchange(r, round, probeInput{gadget, g.facts, g.query})
			if err != nil {
				return err
			}
			g.probed = p
			continue
		}
		if err := g.probed.probeQueries(r, round); err != nil {
			return err
		}
	}
	return nil
}

// decide asks one graph's query as an operation of phase ph and queues
// its check.
func (t *tricolor) decide(r *runner, ph phase, round int, g *gadgetGraph) {
	possible := ph == phasePossible
	kind := "certain "
	call := func(opts ...repro.Option) (*repro.Answers, error) { return g.ex.Answer(g.q, opts...) }
	if possible {
		kind = "possible "
		call = func(opts ...repro.Option) (*repro.Answers, error) { return g.ex.Possible(g.q, opts...) }
	}
	ans := libraryQuery(r, ph, round, kind+g.spec.Name, call)
	if ans == nil {
		return
	}
	r.later(func() {
		holds := len(ans.Tuples) == 1
		var err error
		switch {
		case ans.Partial():
			err = fmt.Errorf("partial answers")
		case possible && !holds:
			// The source facts minus every colour admit a solution and
			// keep F, so some repair always keeps F.
			err = fmt.Errorf("F(n,1) is not XR-possible, but some repair always keeps it")
		case !possible && holds == g.colourable:
			err = fmt.Errorf("XR-certain is %v, but brute force says 3-colourable is %v", holds, g.colourable)
		}
		if err != nil {
			r.fail("tricolor "+kind+g.spec.Name, err)
		}
	})
}

func (t *tricolor) certainPass(r *runner, ph phase, round int) error {
	for _, g := range t.graphs {
		t.decide(r, ph, round, g)
	}
	return nil
}

func (t *tricolor) possiblePass(r *runner, round int) error {
	for _, g := range t.graphs {
		t.decide(r, phasePossible, round, g)
	}
	return nil
}

func (t *tricolor) explain(r *runner, round int) error {
	for _, g := range t.graphs {
		if !g.spec.Explain {
			continue
		}
		e := libraryExplain(r, round, "explain "+g.spec.Name, func() (*repro.Explanation, error) {
			return g.ex.Why(g.q, nil)
		})
		if e == nil {
			continue
		}
		r.later(func() {
			if err := g.checkExplanation(e); err != nil {
				r.fail("tricolor explain "+g.spec.Name, err)
			}
		})
	}
	return nil
}

// checkExplanation checks the verdict against brute force and, for a
// colourable graph, that the counterexample repair decodes to a proper
// 3-colouring: every vertex keeps a colour, and no edge joins two vertices
// that keep the same one.
func (g *gadgetGraph) checkExplanation(e *repro.Explanation) error {
	accepted := e.Verdict == "certain" || e.Verdict == "safe"
	if accepted == g.colourable {
		return fmt.Errorf("verdict %q, but brute force says 3-colourable is %v", e.Verdict, g.colourable)
	}
	if accepted {
		return nil
	}
	var kept string
	for _, line := range strings.Split(e.Text, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "keeps (suspect):"); ok {
			kept = rest
		}
	}
	if kept == "" || strings.Contains(kept, "more)") {
		return fmt.Errorf("witness has no complete list of kept facts:\n%s", e.Text)
	}
	colours := make(map[string]map[string]bool)
	for _, f := range strings.Split(kept, ";") {
		f = strings.TrimSpace(f)
		for _, c := range []string{"Cr", "Cg", "Cb"} {
			if v, ok := strings.CutPrefix(f, c+"("); ok {
				v = strings.TrimSuffix(v, ")")
				if colours[v] == nil {
					colours[v] = make(map[string]bool)
				}
				colours[v][c] = true
			}
		}
	}
	for _, v := range g.names {
		if len(colours[v]) == 0 {
			return fmt.Errorf("witness leaves vertex %s without a colour", v)
		}
	}
	for _, e := range g.spec.Edges {
		x, y := g.names[e[0]], g.names[e[1]]
		for c := range colours[x] {
			if colours[y][c] {
				return fmt.Errorf("witness colours both ends of edge %s-%s %s", x, y, c)
			}
		}
	}
	return nil
}

func (t *tricolor) load(r *runner, round int) error {
	g := t.loadG
	var ex *repro.Exchange
	_, err := r.op(phaseLoad, "load "+g.spec.Name, func(o opRef) error {
		var err error
		ex, err = libraryExchange(r, o, t.sys, g.facts)
		return err
	})
	if err != nil {
		return nil
	}
	got, want := ex.Stats(), g.ex.Stats()
	r.later(func() {
		if got.TotalFacts != want.TotalFacts || got.Violations != want.Violations {
			r.fail("tricolor load "+g.spec.Name, fmt.Errorf("rebuilt exchange has %d facts and %d violations, want %d and %d",
				got.TotalFacts, got.Violations, want.TotalFacts, want.Violations))
		}
	})
	return nil
}

func (t *tricolor) teardown(r *runner, final bool) error {
	for _, g := range t.graphs {
		g.ex, g.probed = nil, nil
	}
	return nil
}
