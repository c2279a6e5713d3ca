package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/server"
)

// The serve-mix load: two closed-loop clients (one per core, sharing
// both cores with the server), four Figure-2a variants each, nine churn
// steps per variant — 72 distinct config sets against a 64-entry session
// LRU, so evictions, rebuilds and cold solves keep happening at a low,
// steady rate and give the mix a real p99. Requests go out in chunks so
// that the run can stop on -seconds; a chunk is about a second long,
// short enough that the host's speed holds across it and its two
// reference bursts (see reference.go), long enough that 100 requests
// lie beyond its p99.
const (
	serveClients  = 2
	serveSessions = 4
	warmRequests  = 20000
	chunkRequests = 10000
	minChunks     = 8
	// checkRequests sizes the correctness pass, whose per-op results are
	// compared between a warm and a cold server and with the golden hash.
	checkRequests = 2000
	// fleetRequests sizes the traced run's front-tier row.
	fleetRequests = 20000
	// sessionOps is how many variants the traced run's direct
	// cpr.Session ledger visits.
	sessionOps = 40
)

// figure2aSpec is the specification every load-generated session is
// verified and repaired against (internal/fleet's own constant).
const figure2aSpec = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"

// serveRun is one in-process cprd behind a real listener.
type serveRun struct {
	ts *httptest.Server
}

func startServe() *serveRun {
	return &serveRun{ts: httptest.NewServer(server.New(server.Config{}).Handler())}
}

func (s *serveRun) close() { s.ts.Close() }

// load replays one deterministic chunk of the mix against target.
func load(target string, client *http.Client, seed int64, requests int, trace bool) (*fleet.Report, [][]string, error) {
	return fleet.RunLoad(fleet.LoadOptions{
		Target: target, Mix: "mixed", Requests: requests,
		Clients: serveClients, Sessions: serveSessions, Seed: seed,
		Trace: trace, HTTPClient: client,
	})
}

func (s *serveRun) chunk(seed int64, requests int) (*fleet.Report, error) {
	r, _, err := load(s.ts.URL, s.ts.Client(), seed, requests, false)
	return r, err
}

// checkPass runs the traced correctness schedule and returns each
// client's canonical per-op results.
func (s *serveRun) checkPass(seed int64) ([][]string, error) {
	r, traces, err := load(s.ts.URL, s.ts.Client(), seed, checkRequests, true)
	if err != nil {
		return nil, err
	}
	if r.Errors != 0 || r.Sheds != 0 {
		return nil, fmt.Errorf("check pass: %d errors, %d sheds in %d requests", r.Errors, r.Sheds, r.Requests)
	}
	return traces, nil
}

// call makes one JSON request to the server — a POST of body, or a GET
// when body is nil — and decodes a 200 reply into out.
func (s *serveRun) call(path string, body, out any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = s.ts.Client().Get(s.ts.URL + path)
	} else {
		var buf []byte
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
		resp, err = s.ts.Client().Post(s.ts.URL+path, "application/json", bytes.NewReader(buf))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// chunkSeed spreads a run's chunks over the schedule space so that
// neighbouring -seed values do not replay each other's chunks.
func chunkSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// loadPhase is the timed part of serve-mix: chunks until the deadline.
// With tracing off a reference burst (see reference.go) runs before the
// first chunk and after each.
type loadPhase struct {
	reports    []*fleet.Report
	refs       []float64 // reference p50, ms: refs[i] before chunk i, refs[i+1] after it
	requests   int
	allocBytes uint64           // during the chunks, not the bursts between them
	m0, m1     runtime.MemStats // around the phase
}

func (p *loadPhase) allocMB() float64 { return float64(p.allocBytes) / 1e6 }

func (s *serveRun) timed(res *result, rc runConfig, seconds float64) (*loadPhase, error) {
	p := &loadPhase{}
	burst := func() error { return nil } // the traced run's ledger is in raw ms
	if !rc.trace {
		ref := startReference()
		defer ref.close()
		if _, err := ref.burst(); err != nil { // untimed: opens the connections
			return nil, err
		}
		burst = func() error {
			ms, err := ref.burst()
			p.refs = append(p.refs, ms)
			return err
		}
	}
	if err := burst(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.m0)
	start := time.Now()
	for i := 1; len(p.reports) < minChunks || time.Since(start).Seconds() < seconds; i++ {
		var a0, a1 runtime.MemStats
		runtime.ReadMemStats(&a0)
		r, err := s.chunk(chunkSeed(rc.seed, i), chunkRequests)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&a1)
		p.allocBytes += a1.TotalAlloc - a0.TotalAlloc
		p.reports = append(p.reports, r)
		p.requests += r.Requests
		res.Attempted += r.Requests
		if bad := r.Errors + r.Sheds; bad > 0 {
			res.failN(bad, "chunk %d: %d errors, %d shed of %d requests", i, r.Errors, r.Sheds, r.Requests)
		}
		if err := burst(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&p.m1)
	return p, nil
}

// slowdown is how much slower than nominal the host ran around chunk i,
// by the two reference bursts that bracket it.
func (p *loadPhase) slowdown(i int) float64 {
	return (p.refs[i] + p.refs[i+1]) / 2 / refNominalMS
}

// atNominal restates one timing of each chunk at the host's nominal
// speed and returns the median over chunks. A latency is divided by the
// chunk's slowdown, a rate multiplied.
func (p *loadPhase) atNominal(f func(*fleet.Report) float64, rate bool) float64 {
	xs := make([]float64, len(p.reports))
	for i, r := range p.reports {
		if rate {
			xs[i] = f(r) * p.slowdown(i)
		} else {
			xs[i] = f(r) / p.slowdown(i)
		}
	}
	return median(xs)
}

// quiet returns the faster half of the chunks (see quietHalf).
func (p *loadPhase) quiet() []*fleet.Report {
	return quietHalf(p.reports, func(r *fleet.Report) float64 { return -r.Throughput })
}

// over returns the median over the quiet chunks of one figure of each
// report.
func (p *loadPhase) over(f func(*fleet.Report) float64) float64 {
	var xs []float64
	for _, r := range p.quiet() {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// opStat returns the median over chunks of one op type's figure.
func (p *loadPhase) opStat(op string, f func(fleet.OpStats) float64) float64 {
	return p.over(func(r *fleet.Report) float64 {
		for _, o := range r.Ops {
			if o.Op == op {
				return f(o)
			}
		}
		return 0
	})
}

// runServe drives serve-mix.
func runServe(w *workload, rc runConfig) (*result, error) {
	res := newResult(w.name, rc)
	if !rc.trace {
		s, n := timeSetup(serveSetup)
		res.set("setup_s", s, n)
	}
	s := startServe()
	defer s.close()

	t0 := time.Now()
	warm, err := s.chunk(chunkSeed(rc.seed, 0), warmRequests)
	if err != nil {
		return nil, err
	}
	warmMS := float64(time.Since(t0)) / float64(time.Millisecond)
	if warm.Errors+warm.Sheds > 0 {
		res.fail("warm-up: %d errors, %d shed", warm.Errors, warm.Sheds)
		return res, nil
	}

	seconds := float64(rc.seconds)
	if rc.trace {
		seconds /= 2 // the session and fleet ledgers share the run
	}
	p, err := s.timed(res, rc, seconds)
	if err != nil {
		return nil, err
	}

	// The ledger's server counters are read before the check pass adds
	// to them.
	var st server.Statsz
	if rc.trace {
		if err := s.call("/statsz", nil, &st); err != nil {
			return nil, err
		}
	}
	lines, err := s.check(res, rc)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		if err := s.ledger(res, rc, p, &st, warmMS); err != nil {
			return nil, err
		}
	} else {
		restated := fmt.Sprintf("median of %d chunks, each restated at the reference exchange's nominal %g ms", len(p.reports), refNominalMS)
		res.set("op_ms_p50", p.atNominal(func(r *fleet.Report) float64 { return r.All.P50MS }, false), p.requests)
		res.set("op_ms_p95", p.atNominal(func(r *fleet.Report) float64 { return r.All.P95MS }, false), p.requests)
		res.set("op_ms_p99", p.atNominal(func(r *fleet.Report) float64 { return r.All.P99MS }, false), p.requests)
		res.set("ops_per_s", p.atNominal(func(r *fleet.Report) float64 { return r.Throughput }, true), p.requests)
		res.note("op_ms_p50", restated)
		res.note("ops_per_s", restated)
		res.set(refP50.Name, median(p.refs), len(p.refs)*refRequests)
		var raw []float64
		for _, r := range p.reports {
			raw = append(raw, r.All.P50MS)
		}
		res.set(rawP50.Name, median(raw), p.requests)
		res.set("alloc_mb_per_op", p.allocMB()/float64(p.requests), p.requests)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss, 0)
	}
	res.set("patch_lines", float64(lines), 0)
	res.set(failedShare.Name, float64(res.Failed)/float64(res.Attempted), res.Attempted)
	return res, nil
}

// serveSetup is what precedes the first request: drawing the config
// variants and bringing a server up.
func serveSetup() {
	for id := 0; id < serveClients*serveSessions; id++ {
		if _, err := fleet.VariantConfigs(id); err != nil {
			panic(err) // the built-in fixture always parses
		}
	}
	startServe().close()
}

// check is serve-mix's correctness pass: the same traced schedule
// against the warmed server and against a cold one must give identical
// canonical results (every cache layer pinned to the solve it stands in
// for), each config set must answer its repairs one way, and under the
// golden seed the results must hash to the pinned value. It returns
// serve-mix's patch_lines.
func (s *serveRun) check(res *result, rc runConfig) (int, error) {
	res.Attempted += 2 * checkRequests
	warm, err := s.checkPass(rc.seed)
	if err != nil {
		return 0, err
	}
	cold := startServe()
	defer cold.close()
	ref, err := cold.checkPass(rc.seed)
	if err != nil {
		return 0, err
	}
	if traceHash(warm) != traceHash(ref) {
		res.fail("check pass: warm server and cold server answered the same schedule differently")
	}
	for _, p := range inconsistentRepairs(warm) {
		res.fail("check pass: %s", p)
	}
	if rc.seed == golden.ServeTraceSeed && traceHash(warm) != golden.ServeTraceSHA256 {
		res.fail("check pass: trace hash %s, pinned %s", traceHash(warm)[:12], golden.ServeTraceSHA256)
	}
	return s.variantLines(res)
}

// variantLines repairs each of the mix's base config variants once
// more through the server and sums their patch lines: serve-mix's
// patch_lines, over inputs no schedule seed changes.
func (s *serveRun) variantLines(res *result) (int, error) {
	lines := 0
	for id := 0; id < serveClients*serveSessions; id++ {
		texts, err := fleet.VariantConfigs(id)
		if err != nil {
			return 0, err
		}
		var lr server.LoadResponse
		if err := s.call("/v1/load", server.LoadRequest{Configs: texts}, &lr); err != nil {
			return 0, err
		}
		var rr server.RepairResponse
		if err := s.call("/v1/repair", server.RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &rr); err != nil {
			return 0, err
		}
		res.Attempted++
		if !rr.Solved {
			res.fail("variant %d: repair not solved (degraded=%d failed=%d)", id, rr.Degraded, rr.Failed)
		}
		lines += rr.Lines
	}
	return lines, nil
}

// ledger fills the traced run's serve-side layers: the server rows from
// the timed chunks and their /statsz reading, the session rows from
// direct calls, and the fleet row from the same schedule through a
// front.
func (s *serveRun) ledger(res *result, rc runConfig, p *loadPhase, st *server.Statsz, warmMS float64) error {
	for _, op := range []string{"verify", "repair", "delta"} {
		res.set("server."+op+"_ms_p50", p.opStat(op, func(o fleet.OpStats) float64 { return o.P50MS }), p.requests)
		res.set("server."+op+"_ms_p99", p.opStat(op, func(o fleet.OpStats) float64 { return o.P99MS }), p.requests)
	}
	c := st.Cache
	res.set("server.session_builds", float64(c.Builds), 0)
	res.set("server.session_hit_share", ratio(float64(c.Hits), float64(c.Hits+c.Builds+c.Coalesced)), 0)
	res.set("server.delta_builds", float64(c.DeltaBuilds), 0)
	res.set("server.delta_hit_share", ratio(float64(c.DeltaHits), float64(c.DeltaHits+c.DeltaBuilds+c.DeltaCoalesced)), 0)
	res.set("server.solve_hit_share", ratio(float64(st.Retained.SolveHits), float64(st.Retained.SolveHits+st.Retained.SolveMisses)), 0)
	res.set("server.reused_share", ratio(float64(st.Destinations.Reused), float64(st.Destinations.Solved)), 0)
	res.set("server.retained_mb", float64(st.Retained.Bytes)/1e6, 0)
	res.set("server.retained_solvers", float64(st.Retained.Solvers), 0)
	res.set("server.rejected", float64(st.Solves.Rejected), 0)

	rec := newRecorder()
	if err := sessionLedger(res, rec); err != nil {
		return err
	}
	res.set("server.http_overhead_ms", res.get("server.repair_ms_p50")-res.get("session.repair_memo_ms"), 0)

	directP50 := p.over(func(r *fleet.Report) float64 { return r.All.P50MS })
	if err := fleetLedger(res, rc, directP50); err != nil {
		return err
	}
	res.set("harness.warmup_ms", warmMS, 0)
	runtimeLedger(res, &p.m0, &p.m1, p.requests)
	if _, err := writeTrace(res.Workload, rec.spans); err != nil {
		return err
	}
	if share := res.get("server.reused_share"); share <= 0.5 {
		res.fail("self-check: server.reused_share = %.3f, want > 0.5 (the mix no longer lives on its caches)", share)
	}
	return nil
}

// sessionLedger times the cache layers under the server by calling
// cpr.Session directly: build, fork, cold repair, solve-cache replay
// (same sub-problems under an option set the output memo has not seen)
// and exact repeat.
func sessionLedger(res *result, rec *recorder) error {
	var coverage []float64
	for id := 0; id < sessionOps; id++ {
		texts, err := fleet.VariantConfigs(id)
		if err != nil {
			return err
		}
		c, err := config.Parse("C", texts["C"])
		if err != nil {
			return err
		}
		if _, err := c.SetInterfaceCost("Ethernet0/1", 1+(id+1)%9); err != nil {
			return err
		}
		overlay := map[string]string{"C": c.Print()}
		ctx := context.Background()
		opts := cpr.DefaultOptions()
		replayOpts := opts
		replayOpts.Parallelism = 1 // not part of a sub-problem's fingerprint, but part of the memo key

		rec.in("op.session", id, -1, func(root int) {
			var sess *cpr.Session
			rec.in("session.new", id, root, func(int) { sess, err = cpr.NewSession(texts) })
			if err != nil {
				return
			}
			var policies []cpr.Policy
			rec.in("cpr.parse_policies", id, root, func(int) { policies, err = sess.System().ParsePolicies(figure2aSpec) })
			if err != nil {
				return
			}
			var miss, replay, memo *cpr.RepairOutput
			rec.in("session.repair_miss", id, root, func(int) { miss, err = sess.RepairCtx(ctx, policies, opts) })
			if err != nil {
				return
			}
			rec.in("session.repair_replay", id, root, func(int) { replay, err = sess.RepairCtx(ctx, policies, replayOpts) })
			if err != nil {
				return
			}
			rec.in("session.repair_memo", id, root, func(int) { memo, err = sess.RepairCtx(ctx, policies, opts) })
			if err != nil {
				return
			}
			rec.in("session.delta", id, root, func(int) { _, err = sess.Delta(overlay) })
			if err != nil {
				return
			}
			res.Attempted++
			n := len(miss.Result.Stats)
			switch {
			case !miss.Solved() || miss.Result.Reused != 0:
				res.fail("session %d: first repair solved=%v reused=%d, want a cold solve", id, miss.Solved(), miss.Result.Reused)
			case replay.Result.Reused != n || memo.Result.Reused != n:
				res.fail("session %d: replay reused %d and memo %d of %d sub-problems", id, replay.Result.Reused, memo.Result.Reused, n)
			case cpr.ContentKey(replay.PatchedConfigs) != cpr.ContentKey(miss.PatchedConfigs) ||
				cpr.ContentKey(memo.PatchedConfigs) != cpr.ContentKey(miss.PatchedConfigs):
				res.fail("session %d: a cached repair differs from the solve it replays", id)
			}
		})
		if err != nil {
			return fmt.Errorf("session ledger, variant %d: %w", id, err)
		}
	}
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.Parent < 0 && s.dur() > 0 {
			coverage = append(coverage, 1-float64(self[i])/float64(s.dur()))
		}
	}
	for _, name := range []string{"session.new", "session.delta", "session.repair_miss", "session.repair_replay", "session.repair_memo"} {
		xs := spanMS(rec.spans, name)
		res.set(name+"_ms", median(xs), len(xs))
	}
	res.set("harness.trace_coverage", median(coverage), len(coverage))
	return nil
}

// spanMS returns the duration, in ms, of every span with the name.
func spanMS(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return xs
}

// fleetLedger replays the mix through a front tier over two fresh
// replicas. Ledger row only: on two cores its timings do not repeat
// well enough to gate (asynchronous replication makes reroutes
// nondeterministic).
func fleetLedger(res *result, rc runConfig, directP50 float64) error {
	var replicas []*httptest.Server
	cfg := fleet.Config{}
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		defer ts.Close()
		replicas = append(replicas, ts)
		cfg.Replicas = append(cfg.Replicas, ts.URL)
	}
	front := fleet.New(cfg)
	defer front.Close()
	front.Start()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	if _, _, err := load(fts.URL, fts.Client(), chunkSeed(rc.seed, 0), checkRequests, false); err != nil {
		return err
	}
	r, _, err := load(fts.URL, fts.Client(), chunkSeed(rc.seed, 1), fleetRequests, false)
	if err != nil {
		return err
	}
	res.Attempted += r.Requests
	if r.Errors > 0 {
		res.fail("fleet: %d errors in %d requests", r.Errors, r.Requests)
	}
	status := front.Status()
	res.set("fleet.front_op_ms_p50", r.All.P50MS, r.Requests)
	res.set("fleet.front_op_ms_p99", r.All.P99MS, r.Requests)
	res.set("fleet.front_overhead_ms", r.All.P50MS-directP50, 0)
	res.set("fleet.reroute_share", float64(r.Reroutes)/float64(r.Requests), r.Requests)
	res.set("fleet.retries", float64(status.Routing.Retries), 0)
	res.set("fleet.failovers", float64(status.Routing.Failovers), 0)
	res.set("fleet.hedges", float64(status.Routing.Hedges), 0)
	res.set("fleet.replications", float64(status.Routing.Replications), 0)
	res.set("fleet.skew_max_over_mean", r.SkewMaxOverMean, 0)
	return nil
}
