package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/policy"
)

const figure2aSpec = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts body to path and decodes the JSON reply into out,
// returning the HTTP status.
func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s reply: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s reply: %v", path, err)
	}
	return resp.StatusCode
}

func loadFigure2a(t *testing.T, ts *httptest.Server) LoadResponse {
	t.Helper()
	var lr LoadResponse
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: config.Figure2aConfigs()}, &lr); st != http.StatusOK {
		t.Fatalf("load status = %d", st)
	}
	return lr
}

func TestLoadVerifyExplainRepairRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	lr := loadFigure2a(t, ts)
	if lr.Cached {
		t.Error("first load reported cached")
	}
	if lr.Devices != 3 {
		t.Errorf("devices = %d, want 3", lr.Devices)
	}

	var vr VerifyResponse
	if st := postJSON(t, ts, "/v1/verify", VerifyRequest{Session: lr.Session, Policies: figure2aSpec}, &vr); st != http.StatusOK {
		t.Fatalf("verify status = %d", st)
	}
	if vr.Total != 4 || len(vr.Violated) != 1 {
		t.Fatalf("verify = %+v, want 4 total / 1 violated", vr)
	}
	if !strings.HasPrefix(vr.Violated[0], "reachable") {
		t.Errorf("violated policy = %q, want the PC3 policy", vr.Violated[0])
	}

	var er ExplainResponse
	if st := postJSON(t, ts, "/v1/explain", VerifyRequest{Session: lr.Session, Policies: figure2aSpec}, &er); st != http.StatusOK {
		t.Fatalf("explain status = %d", st)
	}
	if len(er.Explanations) == 0 {
		t.Error("no explanations for a violated spec")
	}

	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &rr); st != http.StatusOK {
		t.Fatalf("repair status = %d", st)
	}
	if !rr.Solved || rr.Lines == 0 || rr.Plan == "" {
		t.Fatalf("repair = solved=%v lines=%d, want a non-empty repair", rr.Solved, rr.Lines)
	}
	if len(rr.PatchedConfigs) != 3 {
		t.Fatalf("patched %d configs, want 3", len(rr.PatchedConfigs))
	}

	// The patched configs satisfy the spec end-to-end: load them as a new
	// session and verify.
	var lr2 LoadResponse
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: rr.PatchedConfigs}, &lr2); st != http.StatusOK {
		t.Fatalf("load patched status = %d", st)
	}
	if lr2.Session == lr.Session {
		t.Error("patched configs hash to the original session")
	}
	var vr2 VerifyResponse
	if st := postJSON(t, ts, "/v1/verify", VerifyRequest{Session: lr2.Session, Policies: figure2aSpec}, &vr2); st != http.StatusOK {
		t.Fatalf("verify patched status = %d", st)
	}
	if len(vr2.Violated) != 0 {
		t.Errorf("patched network still violates %v", vr2.Violated)
	}
}

func TestLoadCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	lr1 := loadFigure2a(t, ts)
	lr2 := loadFigure2a(t, ts)
	if lr2.Session != lr1.Session {
		t.Fatalf("identical configs gave different sessions %q vs %q", lr1.Session, lr2.Session)
	}
	if !lr2.Cached {
		t.Error("identical re-load was not a cache hit")
	}

	var sz Statsz
	if st := getJSON(t, ts, "/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz status = %d", st)
	}
	if sz.Cache.Builds != 1 {
		t.Errorf("builds = %d, want 1 (second load must not re-parse)", sz.Cache.Builds)
	}
	if sz.Cache.Hits != 1 {
		t.Errorf("hits = %d, want 1", sz.Cache.Hits)
	}
	if sz.SessionsCached != 1 {
		t.Errorf("sessions_cached = %d, want 1", sz.SessionsCached)
	}
}

// TestSingleFlight drives the cache directly with a build that blocks
// until both callers have arrived, proving concurrent identical loads
// share one build deterministically.
func TestSingleFlight(t *testing.T) {
	c := newSessionCache(4)
	builds := 0
	arrived := make(chan struct{})
	release := make(chan struct{})
	build := func() (*cpr.Session, error) {
		builds++
		close(arrived)
		<-release
		return cpr.NewSession(config.Figure2aConfigs())
	}

	var wg sync.WaitGroup
	outcomes := make([]loadOutcome, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, how, err := c.getOrLoad("k", build)
		if err != nil {
			t.Error(err)
		}
		outcomes[0] = how
	}()
	<-arrived // builder is inside build()

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, how, err := c.getOrLoad("k", func() (*cpr.Session, error) {
			t.Error("second build ran despite in-flight identical load")
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		outcomes[1] = how
	}()

	// Give the second caller time to block on the in-flight build, then
	// let the build finish. Whether it coalesced or (under an adversarial
	// scheduler) arrived after completion and hit the cache, the invariant
	// is the same: exactly one build ran.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if outcomes[0] != loadBuilt {
		t.Fatalf("first outcome = %v, want built", outcomes[0])
	}
	if outcomes[1] == loadBuilt {
		t.Fatalf("second outcome = built, want coalesced or hit")
	}
	if _, ok := c.get("k"); !ok {
		t.Fatal("session not cached after single-flight build")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSessionCache(2)
	sess, err := cpr.NewSession(config.Figure2aConfigs())
	if err != nil {
		t.Fatal(err)
	}
	c.put("a", sess)
	c.put("b", sess)
	c.get("a") // bump a: b is now least recently used
	c.put("c", sess)
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestEvictedSessionStillReplays: under MaxSessions pressure eviction
// only drops the cache's reference. The /statsz Retained gauges count the
// sessions still cached, and a request that still holds the evicted
// session keeps replaying from its solve cache.
func TestEvictedSessionStillReplays(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 1})
	lr := loadFigure2a(t, ts)

	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &rr); st != http.StatusOK {
		t.Fatalf("repair status = %d", st)
	}
	sess, ok := srv.cache.get(lr.Session)
	if !ok {
		t.Fatal("session not cached")
	}
	if cs := sess.CacheStats(); cs.Entries == 0 || cs.RetainedBytes == 0 {
		t.Fatalf("repair retained nothing: %+v", cs)
	}

	// Loading a different network with MaxSessions=1 evicts the first
	// session while this test still holds it.
	other := config.Figure2aConfigs()
	other["C"] += "ip access-list extended CHURN\n permit ip any any\n!\n"
	var lr2 LoadResponse
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: other}, &lr2); st != http.StatusOK {
		t.Fatalf("second load status = %d", st)
	}
	if _, ok := srv.cache.get(lr.Session); ok {
		t.Fatal("first session not evicted")
	}
	after := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if after.Retained.Solvers != 0 || after.Retained.Bytes != 0 || after.Retained.Entries != 0 {
		t.Fatalf("statsz still counts evicted session's memory: %+v", after.Retained)
	}
	if after.SessionsCached != 1 {
		t.Fatalf("sessions cached = %d, want 1", after.SessionsCached)
	}

	ps, err := sess.System().ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	opts := cpr.DefaultOptions()
	opts.Parallelism = 1 // a new output-memo key: the answer comes from the solve cache
	out, err := sess.Repair(ps, opts)
	if err != nil || !out.Solved() {
		t.Fatalf("repair of the evicted session: solved %v, err %v", out != nil && out.Solved(), err)
	}
	if n := len(out.Result.Stats); n == 0 || out.Result.Reused != n {
		t.Fatalf("the evicted session replayed %d of %d sub-problems, want all", out.Result.Reused, n)
	}
}

// TestStatszCountsSharedEntriesOnce: a delta forks its base session's
// solve cache by reference, so both cached sessions hold the base's
// entries. /statsz must count each such entry and its bytes once; hits,
// misses and stores stay per-session sums.
func TestStatszCountsSharedEntriesOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	lr := loadFigure2a(t, ts)
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &rr); st != http.StatusOK || !rr.Solved {
		t.Fatalf("repair = %d solved=%v", st, rr.Solved)
	}
	base, ok := srv.cache.get(lr.Session)
	if !ok {
		t.Fatal("session not cached")
	}
	want := base.CacheStats()
	if want.Entries == 0 || want.RetainedBytes == 0 {
		t.Fatalf("repair retained nothing: %+v", want)
	}

	// An unused ACL on C: a new session whose cache shares every entry of
	// the base's, and solves nothing.
	churn := map[string]string{"C": config.Figure2aConfigs()["C"] + "ip access-list extended UNUSED\n permit ip any any\n!\n"}
	var dr DeltaResponse
	if st := postJSON(t, ts, "/v1/delta", DeltaRequest{Session: lr.Session, Configs: churn}, &dr); st != http.StatusOK {
		t.Fatalf("delta status = %d", st)
	}
	if srv.cache.len() != 2 {
		t.Fatalf("sessions cached = %d, want 2", srv.cache.len())
	}
	if fork, ok := srv.cache.get(dr.Session); !ok || fork.CacheStats().Entries != want.Entries {
		t.Fatalf("delta session does not share the base's %d entries", want.Entries)
	}
	var sz Statsz
	if st := getJSON(t, ts, "/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz status = %d", st)
	}
	got := sz.Retained
	if got.Entries != want.Entries || got.Bytes != want.RetainedBytes || got.Solvers != 0 {
		t.Errorf("statsz retained %d entries, %d B, %d solvers; want the shared %d, %d B counted once, and no solvers",
			got.Entries, got.Bytes, got.Solvers, want.Entries, want.RetainedBytes)
	}
	if got.SolveMisses != want.Misses || got.SolveStores != want.Stores {
		t.Errorf("statsz solve misses %d, stores %d; want the base session's %d, %d", got.SolveMisses, got.SolveStores, want.Misses, want.Stores)
	}
}

// slowSession loads a session whose all-tcs repair takes several seconds
// (the dc09-scale corpus network), for cancellation and saturation tests.
func slowSession(t *testing.T, ts *httptest.Server) (session, policies string) {
	t.Helper()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "slow", Routers: 20, Subnets: 15, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := make(map[string]string, len(inst.Configs))
	for name, c := range inst.Configs {
		texts[name] = c.Print()
	}
	var lr LoadResponse
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: texts}, &lr); st != http.StatusOK {
		t.Fatalf("load status = %d", st)
	}
	return lr.Session, policy.Format(inst.Policies)
}

var slowRepairOptions = cpr.OptionFlags{Granularity: "all-tcs"}

func TestRepairDeadlineCancelsSolver(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	session, policies := slowSession(t, ts)

	t0 := time.Now()
	var er errorResponse
	st := postJSON(t, ts, "/v1/repair", RepairRequest{
		Session: session, Policies: policies,
		Options: slowRepairOptions, TimeoutMS: 50,
	}, &er)
	elapsed := time.Since(t0)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", st)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("error = %q, want a context-deadline error", er.Error)
	}
	// The solve normally takes seconds; cancellation must reach the CDCL
	// inner loop well under 1s.
	if elapsed >= time.Second {
		t.Fatalf("cancelled repair took %v, want well under 1s", elapsed)
	}

	// The solve is recorded as cancelled, not still running.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
		if sz.Solves.InFlight == 0 && sz.Solves.Cancelled == 1 {
			if sz.Solves.Completed != 0 {
				t.Errorf("completed = %d, want 0", sz.Solves.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("statsz never settled: %+v", sz.Solves)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRepairSheds429WhenSaturated(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	lr := loadFigure2a(t, ts)

	// Occupy the single worker slot directly, then hit the endpoint: the
	// admission queue (depth 0) must shed the request immediately.
	block := make(chan struct{})
	running := make(chan struct{})
	go func() {
		_ = srv.pool.do(context.Background(), func() {
			close(running)
			<-block
		})
	}()
	<-running
	defer close(block)

	var er errorResponse
	st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &er)
	if st != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", st)
	}
	sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if sz.Solves.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", sz.Solves.Rejected)
	}
}

func TestUnknownSessionAndBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lr := loadFigure2a(t, ts)

	var er errorResponse
	if st := postJSON(t, ts, "/v1/verify", VerifyRequest{Session: "deadbeef", Policies: figure2aSpec}, &er); st != http.StatusNotFound {
		t.Errorf("unknown session: status = %d, want 404", st)
	}
	if st := postJSON(t, ts, "/v1/verify", VerifyRequest{Session: lr.Session, Policies: "bogus policy line\n"}, &er); st != http.StatusBadRequest {
		t.Errorf("bad policies: status = %d, want 400", st)
	}
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{
		Session: lr.Session, Policies: figure2aSpec,
		Options: cpr.OptionFlags{Granularity: "bogus"},
	}, &er); st != http.StatusBadRequest {
		t.Errorf("bad options: status = %d, want 400", st)
	}
	if st := postJSON(t, ts, "/v1/load", LoadRequest{}, &er); st != http.StatusBadRequest {
		t.Errorf("empty load: status = %d, want 400", st)
	}
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: map[string]string{"x": "hostname A\n", "y": "hostname A\n"}}, &er); st != http.StatusBadRequest {
		t.Errorf("duplicate hostname: status = %d, want 400", st)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz Healthz
	if st := getJSON(t, ts, "/healthz", &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("healthz = %d %+v", st, hz)
	}
}

func TestStatszLatencyHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadFigure2a(t, ts)
	var sz Statsz
	if st := getJSON(t, ts, "/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz status = %d", st)
	}
	ep, ok := sz.Endpoints["/v1/load"]
	if !ok || ep.Count != 1 {
		t.Fatalf("load endpoint stats = %+v", sz.Endpoints)
	}
	var sum int64
	for _, n := range ep.BucketsMS {
		sum += n
	}
	if sum != ep.Count {
		t.Errorf("bucket sum %d != count %d", sum, ep.Count)
	}
}

// TestStatszSolverKeys pins the /statsz solver block's JSON keys (the
// sat.Stats tags) and that a repair's conflicts and decisions fold in.
func TestStatszSolverKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lr := loadFigure2a(t, ts)
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: "reachable S T 2\n"}, &rr); st != http.StatusOK {
		t.Fatalf("repair status = %d", st)
	}
	var sz struct {
		Solver map[string]int64 `json:"solver"`
	}
	if st := getJSON(t, ts, "/statsz", &sz); st != http.StatusOK {
		t.Fatalf("statsz status = %d", st)
	}
	var keys []string
	for k := range sz.Solver {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"arena_gcs", "assump_solves", "binary_props", "conflicts", "cores_extracted", "db_reductions",
		"decisions", "hardened_softs", "learned_lits", "propagations", "restarts", "totalizer_vars",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("solver keys = %v, want %v", keys, want)
	}
	if sz.Solver["conflicts"] != rr.Conflicts || sz.Solver["decisions"] == 0 {
		t.Errorf("solver block = %v, want conflicts %d and some decisions", sz.Solver, rr.Conflicts)
	}
}

// TestSessionKeyIsOrderIndependent pins the content-addressing property
// the cache relies on: a session's key is cpr.ContentKey of its configs.
func TestSessionKeyIsOrderIndependent(t *testing.T) {
	a := map[string]string{"x": "hostname A\n", "y": "hostname B\n"}
	b := map[string]string{"y": "hostname B\n", "x": "hostname A\n"}
	if cpr.ContentKey(a) != cpr.ContentKey(b) {
		t.Error("key depends on map construction order")
	}
	c := map[string]string{"x": "hostname A\n", "y": "hostname C\n"}
	if cpr.ContentKey(a) == cpr.ContentKey(c) {
		t.Error("different configs share a key")
	}
	// Concatenation ambiguity: ("ab","c") vs ("a","bc") must differ.
	d := map[string]string{"ab": "c"}
	e := map[string]string{"a": "bc"}
	if cpr.ContentKey(d) == cpr.ContentKey(e) {
		t.Error("length prefixes fail to disambiguate")
	}
}

func TestGracefulConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxSessions != 64 || cfg.Workers < 1 || cfg.QueueDepth != 2*cfg.Workers {
		t.Errorf("defaults = %+v", cfg)
	}
	if fmt.Sprint(cfg.DefaultTimeout) != "5m0s" {
		t.Errorf("default timeout = %v", cfg.DefaultTimeout)
	}
	neg := Config{QueueDepth: -1}.withDefaults()
	if neg.QueueDepth != 0 {
		t.Errorf("negative queue depth → %d, want 0", neg.QueueDepth)
	}
}

// TestServerPacesCollector: New sets the collector target to gcPercent
// when GOGC is unset, and leaves an operator's GOGC alone.
func TestServerPacesCollector(t *testing.T) {
	caller := debug.SetGCPercent(100)
	t.Cleanup(func() { debug.SetGCPercent(caller) })

	t.Setenv("GOGC", "")
	os.Unsetenv("GOGC")
	New(Config{})
	if got := debug.SetGCPercent(100); got != gcPercent {
		t.Errorf("GOGC unset: New left the collector target at %d, want %d", got, gcPercent)
	}

	t.Setenv("GOGC", "100")
	New(Config{})
	if got := debug.SetGCPercent(100); got != 100 {
		t.Errorf("GOGC=100: New moved the collector target to %d", got)
	}
}
