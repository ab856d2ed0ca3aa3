package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/genome"
	"repro/internal/parser"
)

// genomeConfig names one generated genome instance: a profile of the
// paper's grid (internal/genome) at a scale.
type genomeConfig struct {
	Profile string
	Scale   float64
}

// genomeInput is one generated genome instance in the textual form the
// program receives, with what the generator guarantees about it.
type genomeInput struct {
	Name  string
	Facts string
	// Transcripts is T; the generator makes transcripts 0..Suspects-1 the
	// suspect ones, Suspects = round(T·rate).
	Transcripts int
	Suspects    int
}

// makeGenome generates the instance of gc for the workload seed. The seed
// replaces the profile's generator seed, which draws exon counts,
// coordinates, strands and tissues; the transcript and gene structure, and
// so which transcripts are suspect, depend on the profile alone.
func makeGenome(gc genomeConfig, seed int64) (*genomeInput, error) {
	w, err := genome.NewWorld()
	if err != nil {
		return nil, err
	}
	p, ok := genome.ProfileByName(gc.Profile, gc.Scale)
	if !ok {
		return nil, fmt.Errorf("unknown genome profile %q", gc.Profile)
	}
	p.Seed = p.Seed + 7919*seed
	in := genome.Generate(w, p)
	return &genomeInput{
		Name:        fmt.Sprintf("%s@%g", gc.Profile, gc.Scale),
		Facts:       parser.FormatFacts(in, w.Cat, w.U),
		Transcripts: p.Transcripts,
		Suspects:    int(float64(p.Transcripts)*p.SuspectRate + 0.5),
	}, nil
}

// plainCertain computes the ordinary certain answers of every Table 3
// query on a consistent instance: the query evaluated on the chase, with
// null-bearing tuples removed. On a consistent instance XR-Certain must
// agree with them.
func plainCertain(facts string) (map[string]string, error) {
	w, err := genome.NewWorld()
	if err != nil {
		return nil, err
	}
	in, err := parser.ParseFacts(facts, w)
	if err != nil {
		return nil, err
	}
	j, err := chase.Native(w.M, in)
	if err != nil {
		return nil, fmt.Errorf("chasing a consistent instance: %w", err)
	}
	qs, err := genome.Queries(w)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(qs))
	for _, q := range qs {
		var rows [][]string
		for _, t := range cq.EvalUCQ(q, j).WithoutNulls().Tuples() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = w.U.Name(v)
			}
			rows = append(rows, row)
		}
		out[q.Name] = fingerprint(rows)
	}
	return out, nil
}

// tupleKey renders a tuple for set membership.
func tupleKey(t []string) string { return strings.Join(t, "\x1f") }

// fingerprint renders an answer set canonically: its size, then its sorted
// tuples. The size keeps a boolean "true" (one empty tuple) apart from
// "false" (no tuple).
func fingerprint(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, t := range rows {
		keys[i] = tupleKey(t)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d\n%s", len(keys), strings.Join(keys, "\n"))
}

// answerBook checks the answers of one genome instance against what the
// generator guarantees and against each other across passes. It is safe
// for concurrent use.
type answerBook struct {
	in *genomeInput
	// plain holds the ordinary certain answers when the instance is
	// consistent (nil otherwise).
	plain map[string]string

	mu       sync.Mutex
	certain  map[string]map[string]bool // first certain answers per query
	certFP   map[string]string
	possible map[string]string // first possible answers per query
}

func newAnswerBook(in *genomeInput, plain map[string]string) *answerBook {
	return &answerBook{
		in:       in,
		plain:    plain,
		certain:  make(map[string]map[string]bool),
		certFP:   make(map[string]string),
		possible: make(map[string]string),
	}
}

// transcriptSet lists the ids the generator gives transcripts from..T-1 in
// one of the two id forms (xr2 answers kgIDs, ep2 protein accessions).
func (in *genomeInput) transcriptSet(query string, from int) [][]string {
	var rows [][]string
	for t := from; t < in.Transcripts; t++ {
		rows = append(rows, []string{transcriptID(query, t)})
	}
	return rows
}

func transcriptID(query string, t int) string {
	if query == "ep2" {
		return fmt.Sprintf("P%05d", t)
	}
	return fmt.Sprintf("uc%06d.1", t)
}

// booleanTrue is the answer set of a boolean query that holds.
var booleanTrue = fingerprint([][]string{{}})

// checkCertain checks one query's XR-Certain answers.
func (b *answerBook) checkCertain(query string, rows [][]string) error {
	fp := fingerprint(rows)
	switch query {
	case "xr2", "ep2":
		if want := fingerprint(b.in.transcriptSet(query, b.in.Suspects)); fp != want {
			return fmt.Errorf("%s certain: %d answers, want the %d non-suspect transcripts",
				query, len(rows), b.in.Transcripts-b.in.Suspects)
		}
	case "ep1", "xr1", "xr4":
		if fp != booleanTrue {
			return fmt.Errorf("%s certain: got %d tuples, want true", query, len(rows))
		}
	}
	if b.plain != nil && fp != b.plain[query] {
		return fmt.Errorf("%s certain: %d answers differ from the plain certain answers of a consistent instance",
			query, len(rows))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.certFP[query]; ok {
		if prev != fp {
			return fmt.Errorf("%s certain: %d answers differ from the first pass", query, len(rows))
		}
		return nil
	}
	set := make(map[string]bool, len(rows))
	for _, t := range rows {
		set[tupleKey(t)] = true
	}
	b.certFP[query] = fp
	b.certain[query] = set
	return nil
}

// checkPossible checks one query's XR-Possible answers. It must run after
// the same query's first certain answers were checked.
func (b *answerBook) checkPossible(query string, rows [][]string) error {
	fp := fingerprint(rows)
	switch query {
	case "xr2", "ep2":
		if want := fingerprint(b.in.transcriptSet(query, 0)); fp != want {
			return fmt.Errorf("%s possible: %d answers, want all %d transcripts", query, len(rows), b.in.Transcripts)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cert, ok := b.certain[query]
	if !ok {
		return fmt.Errorf("%s possible: no certain answers to compare with", query)
	}
	have := make(map[string]bool, len(rows))
	for _, t := range rows {
		have[tupleKey(t)] = true
	}
	for k := range cert {
		if !have[k] {
			return fmt.Errorf("%s: certain answer %q is not a possible answer", query, k)
		}
	}
	if prev, ok := b.possible[query]; ok {
		if prev != fp {
			return fmt.Errorf("%s possible: %d answers differ from the first possible pass", query, len(rows))
		}
		return nil
	}
	b.possible[query] = fp
	return nil
}

// explainTarget is one tuple a genome workload asks to have explained.
type explainTarget struct {
	Query string
	Tuple []string
}

// explainTargets picks n tuples from the seed, alternating a suspect
// transcript (which no XR-solution need keep) and a safe one, over the
// xr2 and ep2 id forms.
func explainTargets(in *genomeInput, seed int64, n int) []explainTarget {
	rng := rand.New(rand.NewSource(seed))
	out := make([]explainTarget, 0, n)
	for i := 0; i < n; i++ {
		query := "xr2"
		if i%4 >= 2 {
			query = "ep2"
		}
		var t int
		if i%2 == 0 && in.Suspects > 0 {
			t = rng.Intn(in.Suspects)
		} else {
			t = in.Suspects + rng.Intn(in.Transcripts-in.Suspects)
		}
		out = append(out, explainTarget{Query: query, Tuple: []string{transcriptID(query, t)}})
	}
	return out
}

// checkVerdict checks an XR-Certain explanation verdict against the
// tuple's membership in the first certain answers and, for the xr2 and
// ep2 id forms, against the generator's suspect range.
func (b *answerBook) checkVerdict(t explainTarget, verdict string) error {
	b.mu.Lock()
	in := b.certain[t.Query][tupleKey(t.Tuple)]
	b.mu.Unlock()
	accepted := verdict == "safe" || verdict == "certain"
	rejected := verdict == "rejected" || verdict == "no-support"
	if !accepted && !rejected {
		return fmt.Errorf("why %s%v: unexpected verdict %q", t.Query, t.Tuple, verdict)
	}
	if accepted != in {
		return fmt.Errorf("why %s%v: verdict %q disagrees with the answers (member: %v)", t.Query, t.Tuple, verdict, in)
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimPrefix(strings.TrimPrefix(t.Tuple[0], "uc"), "P"), "%d", &n); err == nil {
		if suspect := n < b.in.Suspects; suspect == accepted {
			return fmt.Errorf("why %s%v: verdict %q, but the transcript is suspect: %v", t.Query, t.Tuple, verdict, suspect)
		}
	}
	return nil
}
