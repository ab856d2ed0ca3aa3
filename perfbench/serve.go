package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/genome"
	"repro/internal/server"
	"repro/internal/store"
)

// tenantSpec is one genome tenant of the serve-mix workload.
type tenantSpec struct {
	Name   string
	Genome genomeConfig
	// Client is the client (0 or 1) that asks this tenant's queries and
	// explanations, or performs its reloads. Each tenant is addressed by
	// one client only, so the order of requests on a tenant, and with it
	// every engine counter, is the same in every run.
	Client int
	// Explains is how many explanations the tenant gets per round.
	Explains int
}

// tenant is one tenant with its inputs and checks.
type tenant struct {
	spec    tenantSpec
	in      *genomeInput
	book    *answerBook
	targets []explainTarget
	info    *server.ScenarioInfo // from the first acknowledged load
}

// serveMix is the serve-mix workload: internal/server's handler, mounted
// as cmd/xrserved mounts it, on a loopback listener inside this process,
// with a store in a temporary data directory. Two closed-loop clients,
// one connection each, send named queries and explanations; the write
// is a reload (DELETE, then POST) of a tenant no query addresses.
type serveMix struct {
	tmp     string
	tenants []*tenant
	reload  *tenant
	version int

	// The running set-up.
	cycle   int
	dataDir string
	st      *store.Store
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	metrics *repro.Metrics
	clients [2]*http.Client
	probed  []*probed

	// acked holds the facts of every load the server acknowledged and no
	// later acknowledged delete removed: what the store must recover.
	ackMu sync.Mutex
	acked map[string]string

	probeStore *store.Store // traced runs: direct store.Save timings
}

func buildServeMix(c *config, seed int64) (workload, error) {
	s := &serveMix{}
	mk := func(spec tenantSpec, i int) (*tenant, error) {
		in, err := makeGenome(spec.Genome, seed+int64(i))
		if err != nil {
			return nil, err
		}
		var plain map[string]string
		if in.Suspects == 0 {
			if plain, err = plainCertain(in.Facts); err != nil {
				return nil, err
			}
		}
		return &tenant{
			spec:    spec,
			in:      in,
			book:    newAnswerBook(in, plain),
			targets: explainTargets(in, seed+int64(i), spec.Explains),
		}, nil
	}
	for i, spec := range c.Tenants {
		t, err := mk(spec, i)
		if err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, t)
	}
	t, err := mk(c.Reload, len(c.Tenants))
	if err != nil {
		return nil, err
	}
	s.reload = t
	return s, nil
}

// reloadFacts is the fact text of the reload tenant's k-th version: the
// same facts under a version comment, so the store must keep the last one.
func (s *serveMix) reloadFacts(k int) string {
	return fmt.Sprintf("# version %d\n%s", k, s.reload.in.Facts)
}

func (s *serveMix) setup(r *runner, i int) error {
	s.tmp = filepath.Join(r.opts.Workdir, "tmp")
	if err := os.MkdirAll(s.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.tmp, "store-")
	if err != nil {
		return err
	}
	s.dataDir = dir
	s.cycle = i
	s.metrics = repro.NewMetrics()
	s.st, err = store.Open(dir, store.Options{Metrics: s.metrics})
	if err != nil {
		return err
	}
	if _, err := s.st.Recover(); err != nil {
		return err
	}
	s.srv = server.New(server.Config{Store: s.st, Metrics: s.metrics})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	for c := range s.clients {
		s.clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	s.acked = make(map[string]string)

	s.version = 0
	for _, t := range append(append([]*tenant(nil), s.tenants...), s.reload) {
		facts := t.in.Facts
		if t == s.reload {
			facts = s.reloadFacts(s.version)
		}
		if err := s.loadTenant(r, t, facts); err != nil {
			return err
		}
	}
	return nil
}

// response is one HTTP exchange as a client saw it.
type response struct {
	status int
	body   []byte
}

// call sends one request on client c and reads the whole body.
func (s *serveMix) call(c int, method, path string, body []byte) (*response, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, body: b}, nil
}

// expect turns an unexpected status into an error.
func (resp *response) expect(status int) error {
	if resp.status != status {
		return fmt.Errorf("HTTP %d, want %d: %s", resp.status, status, bytes.TrimSpace(resp.body))
	}
	return nil
}

// loadTenant POSTs one tenant as a set-up operation.
func (s *serveMix) loadTenant(r *runner, t *tenant, facts string) error {
	body, err := json.Marshal(server.LoadRequest{
		Name:    t.spec.Name,
		Mapping: genome.MappingText,
		Facts:   facts,
		Queries: genome.QueriesText,
	})
	if err != nil {
		return err
	}
	var info server.ScenarioInfo
	_, err = r.op(phaseSetup, "load "+t.spec.Name, func(o opRef) error {
		sp := r.tr.begin(o.id, o.span, "server.request")
		resp, err := s.call(0, http.MethodPost, "/v1/scenarios", body)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if err := resp.expect(http.StatusCreated); err != nil {
			return err
		}
		return json.Unmarshal(resp.body, &info)
	})
	if err != nil {
		return nil // counted as a failed operation
	}
	s.ackMu.Lock()
	s.acked[t.spec.Name] = facts
	s.ackMu.Unlock()
	if t.info == nil {
		t.info = &info
		return nil
	}
	want := t.info
	r.later(func() {
		if info.SourceFacts != want.SourceFacts || info.Violations != want.Violations || info.Clusters != want.Clusters {
			r.fail("load "+t.spec.Name, fmt.Errorf("loaded %d source facts, %d violations, %d clusters; first load had %d, %d, %d",
				info.SourceFacts, info.Violations, info.Clusters, want.SourceFacts, want.Violations, want.Clusters))
		}
	})
	return nil
}

// counters is a reading of the engine counters the server's registry
// exports, for per-pass deltas.
type counters struct {
	solve                            time.Duration
	dec, conf, props, assume, reused int64
}

func (s *serveMix) readCounters() counters {
	m := s.metrics
	return counters{
		solve:  m.Histogram("xr_program_seconds").Sum(),
		dec:    m.Counter("xr_solver_decisions_total").Value(),
		conf:   m.Counter("xr_solver_conflicts_total").Value(),
		props:  m.Counter("xr_solver_propagations_total").Value(),
		assume: m.Counter("xr_solver_assumption_solves_total").Value(),
		reused: m.Counter("xr_solver_reuse_sessions_total").Value(),
	}
}

// inParallel runs work(c) for both clients and waits for both.
func inParallel(work func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(c)
		}()
	}
	wg.Wait()
}

// queryPass asks every named query of every queried tenant, in mode
// certain or possible, each client asking its own tenants' queries.
func (s *serveMix) queryPass(r *runner, ph phase, round int) error {
	mode := "certain"
	if ph == phasePossible {
		mode = "possible"
	}
	before := s.readCounters()
	var mu sync.Mutex
	var answers []*repro.Answers
	var reqMS, overheadMS, respKB float64
	inParallel(func(c int) {
		for _, t := range s.tenants {
			if t.spec.Client != c {
				continue
			}
			for _, qname := range genomeQueryNames {
				body, _ := json.Marshal(server.QueryRequest{Name: qname, Mode: mode})
				var qr server.QueryResponse
				var lat time.Duration
				var size int
				_, err := r.op(ph, mode+" "+t.spec.Name+"/"+qname, func(o opRef) error {
					sp := r.tr.begin(o.id, o.span, "server.request")
					start := time.Now()
					resp, err := s.call(c, http.MethodPost, "/v1/scenarios/"+t.spec.Name+"/query", body)
					lat = time.Since(start)
					r.tr.end(sp)
					if err != nil {
						return err
					}
					if err := resp.expect(http.StatusOK); err != nil {
						return err
					}
					size = len(resp.body)
					return json.Unmarshal(resp.body, &qr)
				})
				if err != nil {
					continue
				}
				ans := qr.Answers
				mu.Lock()
				answers = append(answers, ans)
				reqMS += float64(lat) / float64(time.Millisecond)
				overheadMS += float64(lat-ans.Duration) / float64(time.Millisecond)
				respKB += float64(size) / 1024
				mu.Unlock()
				r.later(func() {
					var err error
					switch {
					case qr.Query != qname || qr.Mode != mode:
						err = fmt.Errorf("response for %s %s, want %s %s", qr.Mode, qr.Query, mode, qname)
					case qr.Partial:
						err = fmt.Errorf("partial answers")
					case mode == "possible":
						err = t.book.checkPossible(qname, ans.Tuples)
					default:
						err = t.book.checkCertain(qname, ans.Tuples)
					}
					if err != nil {
						r.fail(t.spec.Name+" "+mode+" "+qname, err)
					}
				})
			}
		}
	})
	if r.lay == nil {
		return nil
	}
	after := s.readCounters()
	e := engineTotals{
		solveMS: float64(after.solve-before.solve) / float64(time.Millisecond),
		dec:     after.dec - before.dec,
		conf:    after.conf - before.conf,
		props:   after.props - before.props,
		assume:  after.assume - before.assume,
		reused:  after.reused - before.reused,
	}
	for _, a := range answers {
		e.addAnswers(a)
	}
	e.record(r, ph, round)
	if ph == phaseWarm {
		r.add(ph, round, "server.request_ms", reqMS)
		r.add(ph, round, "server.overhead_ms", overheadMS)
		r.add(ph, round, "server.resp_kb", respKB)
	}
	return nil
}

// genomeQueryNames are the Table 3 query names, preloaded with every
// tenant.
var genomeQueryNames = []string{"ep1", "ep2", "ep3", "ep15", "ep16", "xr1", "xr2", "xr3", "xr4", "xr5", "xr6"}

func (s *serveMix) certainPass(r *runner, ph phase, round int) error {
	return s.queryPass(r, ph, round)
}

func (s *serveMix) possiblePass(r *runner, round int) error {
	return s.queryPass(r, phasePossible, round)
}

// explain asks every tenant's explanations; the reload runs beside them
// on its client, so that the write meets concurrent reads.
func (s *serveMix) explain(r *runner, round int) error {
	var werr error
	inParallel(func(c int) {
		if s.reload.spec.Client == c {
			werr = s.reloadOnce(r, round, c)
		}
		for _, t := range s.tenants {
			if t.spec.Client != c {
				continue
			}
			for _, tg := range t.targets {
				s.explainOne(r, round, c, t, tg)
			}
		}
	})
	return werr
}

func (s *serveMix) explainOne(r *runner, round, c int, t *tenant, tg explainTarget) {
	path := "/v1/scenarios/" + t.spec.Name + "/explain?" + url.Values{
		"query": {tg.Query},
		"tuple": {tg.Tuple[0]},
	}.Encode()
	var er server.ExplainResponse
	_, err := r.op(phaseExplain, "explain "+t.spec.Name+"/"+tg.Query, func(o opRef) error {
		sp := r.tr.begin(o.id, o.span, "server.request")
		resp, err := s.call(c, http.MethodGet, path, nil)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if err := resp.expect(http.StatusOK); err != nil {
			return err
		}
		return json.Unmarshal(resp.body, &er)
	})
	if err != nil {
		return
	}
	r.later(func() {
		if er.Explanation == nil {
			r.fail(t.spec.Name+" explain", fmt.Errorf("response without an explanation"))
			return
		}
		if err := t.book.checkVerdict(tg, er.Explanation.Verdict); err != nil {
			r.fail(t.spec.Name+" explain", err)
		}
	})
}

// reloadOnce deletes the reload tenant and loads its next version.
func (s *serveMix) reloadOnce(r *runner, round, c int) error {
	t := s.reload
	s.version++
	facts := s.reloadFacts(s.version)
	body, err := json.Marshal(server.LoadRequest{
		Name:    t.spec.Name,
		Mapping: genome.MappingText,
		Facts:   facts,
		Queries: genome.QueriesText,
	})
	if err != nil {
		return err
	}
	var info server.ScenarioInfo
	_, err = r.op(phaseLoad, "reload "+t.spec.Name, func(o opRef) error {
		sp := r.tr.begin(o.id, o.span, "server.request")
		resp, err := s.call(c, http.MethodDelete, "/v1/scenarios/"+t.spec.Name, nil)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if err := resp.expect(http.StatusNoContent); err != nil {
			return err
		}
		s.ackMu.Lock()
		delete(s.acked, t.spec.Name)
		s.ackMu.Unlock()
		sp = r.tr.begin(o.id, o.span, "server.request")
		start := time.Now()
		resp, err = s.call(c, http.MethodPost, "/v1/scenarios", body)
		r.add(phaseLoad, round, "server.load_ms", msSince(start))
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if err := resp.expect(http.StatusCreated); err != nil {
			return err
		}
		return json.Unmarshal(resp.body, &info)
	})
	if err != nil {
		return nil // counted as a failed operation
	}
	s.ackMu.Lock()
	s.acked[t.spec.Name] = facts
	s.ackMu.Unlock()
	want := t.info
	r.later(func() {
		if info.SourceFacts != want.SourceFacts || info.Violations != want.Violations || info.Clusters != want.Clusters {
			r.fail("reload "+t.spec.Name, fmt.Errorf("reloaded %d source facts, %d violations, %d clusters; first load had %d, %d, %d",
				info.SourceFacts, info.Violations, info.Clusters, want.SourceFacts, want.Violations, want.Clusters))
		}
	})
	if r.lay != nil {
		return s.probeSave(r, round, facts)
	}
	return nil
}

// probeSave times store.Save of the reload tenant's snapshot on a store
// of the benchmark's own (traced runs only).
func (s *serveMix) probeSave(r *runner, round int, facts string) error {
	if s.probeStore == nil {
		dir, err := os.MkdirTemp(s.tmp, "probe-")
		if err != nil {
			return err
		}
		if s.probeStore, err = store.Open(dir, store.Options{RepersistInterval: -1}); err != nil {
			return err
		}
	}
	o := r.newOp()
	sp := r.tr.begin(o, 0, "store.save")
	start := time.Now()
	err := s.probeStore.Save(store.Snapshot{
		Name:    s.reload.spec.Name,
		Mapping: genome.MappingText,
		Facts:   facts,
		Queries: genome.QueriesText,
	})
	r.add(phaseLoad, round, "store.save_ms", msSince(start))
	r.tr.end(sp)
	return err
}

// load does nothing: the serve-mix write runs beside the explanations.
func (s *serveMix) load(r *runner, round int) error { return nil }

func (s *serveMix) probe(r *runner, ph phase, round int) error {
	if ph == phaseSetup {
		s.probed = s.probed[:0]
		for _, t := range append(append([]*tenant(nil), s.tenants...), s.reload) {
			p, err := probeExchange(r, round, probeInput{genome.MappingText, t.in.Facts, genome.QueriesText})
			if err != nil {
				return err
			}
			if t != s.reload {
				s.probed = append(s.probed, p)
			}
		}
		return nil
	}
	for _, p := range s.probed {
		if err := p.probeQueries(r, round); err != nil {
			return err
		}
	}
	return nil
}

// stop drains and shuts down the running server and closes its store.
func (s *serveMix) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.served; err != http.ErrServerClosed {
		return err
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.st.Close()
	return nil
}

// teardown deletes one queried tenant, stops the server and checks that
// the store recovers exactly what the server acknowledged.
func (s *serveMix) teardown(r *runner, final bool) error {
	gone := s.tenants[len(s.tenants)-1]
	if _, err := r.op(phaseFinal, "delete "+gone.spec.Name, func(o opRef) error {
		resp, err := s.call(0, http.MethodDelete, "/v1/scenarios/"+gone.spec.Name, nil)
		if err != nil {
			return err
		}
		return resp.expect(http.StatusNoContent)
	}); err == nil {
		s.ackMu.Lock()
		delete(s.acked, gone.spec.Name)
		s.ackMu.Unlock()
	}
	if err := s.stop(); err != nil {
		return err
	}
	r.extra("durability", s.checkDurability(r))
	if final && s.probeStore != nil {
		s.probeStore.Close()
		if err := os.RemoveAll(s.probeStore.DataDir()); err != nil {
			return err
		}
	}
	s.probed = nil
	return os.RemoveAll(s.dataDir)
}

// checkDurability opens a fresh store on the run's data directory and
// recovers it: it must hold every acknowledged load with the facts of its
// last acknowledged version, byte for byte, and none of the deleted
// tenants.
func (s *serveMix) checkDurability(r *runner) error {
	st, err := store.Open(s.dataDir, store.Options{RepersistInterval: -1})
	if err != nil {
		return err
	}
	defer st.Close()
	o := r.newOp()
	sp := r.tr.begin(o, 0, "store.recover")
	start := time.Now()
	rep, err := st.Recover()
	r.add(phaseFinal, s.cycle, "store.recover_ms", msSince(start))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("recovery quarantined %d artifacts", len(rep.Quarantined))
	}
	got := make(map[string]string, len(rep.Recovered))
	for _, sn := range rep.Recovered {
		got[sn.Name] = sn.Facts
	}
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := s.acked[n]; !ok {
			return fmt.Errorf("recovered tenant %s, which was deleted", n)
		}
	}
	for n, facts := range s.acked {
		have, ok := got[n]
		switch {
		case !ok:
			return fmt.Errorf("acknowledged tenant %s was not recovered", n)
		case have != facts:
			return fmt.Errorf("tenant %s recovered with %d bytes of facts that differ from its last acknowledged version", n, len(have))
		}
	}
	return nil
}
