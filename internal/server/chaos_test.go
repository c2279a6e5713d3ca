package server

import (
	"net/http"
	"strings"
	"testing"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/generate"
	"repro/internal/policy"
)

// TestChaosIncrementalSessionSurvivesDeltaFaults drives the incremental
// layer through its failpoints: an injected /v1/delta failure must
// surface as a clean 400 without poisoning the session cache, the
// retried delta must still replay every sub-problem from the base
// session's forked cache, and a repair the fault failed on the reused
// session must never be memoized — once injection clears, the same
// request must re-solve cleanly.
func TestChaosIncrementalSessionSurvivesDeltaFaults(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer faultinject.Reset()

	lr := loadFigure2a(t, ts)
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: lr.Session, Policies: figure2aSpec}, &rr); st != http.StatusOK || !rr.Solved {
		t.Fatalf("warmup repair = %d solved=%v", st, rr.Solved)
	}

	// One injected delta failure: clean 400, healthz up, nothing cached.
	churn := map[string]string{"C": config.Figure2aConfigs()["C"] + "ip access-list extended CHURN\n permit ip any any\n!\n"}
	if err := faultinject.Set(faultinject.ServerDeltaError, "1*error"); err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if st := postJSON(t, ts, "/v1/delta", DeltaRequest{Session: lr.Session, Configs: churn}, &er); st != http.StatusBadRequest {
		t.Fatalf("injected delta: status = %d, want 400", st)
	}
	if faultinject.FiredCount(faultinject.ServerDeltaError) != 1 {
		t.Fatal("delta failpoint did not fire")
	}
	var hz Healthz
	if st := getJSON(t, ts, "/healthz", &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("healthz after injected delta failure = %d %+v", st, hz)
	}

	// The retry succeeds and the delta'd session replays every
	// sub-problem — the failed build neither poisoned the session cache
	// nor dropped the base session's warm solve cache.
	var dr DeltaResponse
	if st := postJSON(t, ts, "/v1/delta", DeltaRequest{Session: lr.Session, Configs: churn}, &dr); st != http.StatusOK {
		t.Fatalf("retried delta: status = %d, want 200", st)
	}
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: dr.Session, Policies: figure2aSpec}, &rr); st != http.StatusOK || !rr.Solved {
		t.Fatalf("post-delta repair = %d solved=%v", st, rr.Solved)
	}
	if rr.Reused != len(rr.Problems) {
		t.Fatalf("post-delta repair reused %d of %d problems, want all", rr.Reused, len(rr.Problems))
	}

	// A starved solve on the reused session fails — and the failed output
	// must not stick: with injection cleared the identical request
	// re-solves cleanly instead of replaying the failed result.
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	const spec = "reachable S T 2\n"
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: dr.Session, Policies: spec}, &rr); st != http.StatusOK {
		t.Fatalf("starved repair: status = %d, want 200", st)
	}
	if rr.Solved || rr.Failed != 1 {
		t.Fatalf("starved repair = solved=%v failed=%d, want one failed destination", rr.Solved, rr.Failed)
	}
	faultinject.Reset()
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: dr.Session, Policies: spec}, &rr); st != http.StatusOK || !rr.Solved || rr.Failed != 0 {
		t.Fatalf("post-chaos repair = %d solved=%v failed=%d, want a clean solve (failed output must not be memoized)",
			st, rr.Solved, rr.Failed)
	}

	sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if sz.Cache.DeltaBuilds == 0 {
		t.Errorf("statsz delta builds = 0, want at least the retried build: %+v", sz.Cache)
	}
}

// TestChaosDaemonSurvivesInjectedFaults drives a live daemon through
// the server-side failpoints: a cache build failure must surface as a
// clean 400 (not a crash or a poisoned cache entry), a starved solver
// must yield a 200 repair response whose destination failed with its
// error, with accurate /statsz counters, and /healthz must stay up
// throughout.
func TestChaosDaemonSurvivesInjectedFaults(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer faultinject.Reset()

	// One injected load failure: the first load 400s, the retry succeeds
	// (the failed build must not be cached as a session).
	if err := faultinject.Set(faultinject.ServerCacheLoadError, "1*error"); err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if st := postJSON(t, ts, "/v1/load", LoadRequest{Configs: config.Figure2aConfigs()}, &er); st != http.StatusBadRequest {
		t.Fatalf("injected load: status = %d, want 400", st)
	}
	if faultinject.FiredCount(faultinject.ServerCacheLoadError) != 1 {
		t.Fatal("cache failpoint did not fire")
	}
	var hz Healthz
	if st := getJSON(t, ts, "/healthz", &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("healthz after injected load failure = %d %+v", st, hz)
	}
	lr := loadFigure2a(t, ts)
	if lr.Cached {
		t.Error("recovered load claims cached — the failed build leaked into the cache")
	}

	// Permanently starved solver: the PC3-only repair's one destination
	// fails after its retries, and the response says so.
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{
		Session: lr.Session, Policies: "reachable S T 2\n",
	}, &rr); st != http.StatusOK {
		t.Fatalf("starved repair: status = %d, want 200", st)
	}
	if rr.Solved || rr.Failed != 1 || len(rr.Problems) != 1 {
		t.Fatalf("starved repair = solved=%v failed=%d problems=%d, want one failed destination",
			rr.Solved, rr.Failed, len(rr.Problems))
	}
	if len(rr.PatchedConfigs) != 0 || rr.Plan != "" {
		t.Error("a failed repair produced a patch")
	}
	if pr := rr.Problems[0]; pr.Outcome != "failed" || pr.Attempts < 2 || pr.Error == "" {
		t.Errorf("starved problem = %+v, want failed after retries with an error", pr)
	}

	// With injection cleared, the same session must fully solve, and the
	// /statsz outcome counters must reflect both repairs.
	faultinject.Reset()
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{
		Session: lr.Session, Policies: "reachable S T 2\n",
	}, &rr); st != http.StatusOK || !rr.Solved {
		t.Fatalf("post-chaos repair = %d solved=%v, want a clean solve", st, rr.Solved)
	}
	sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if sz.Destinations.Solved != 1 || sz.Destinations.Failed != 1 {
		t.Errorf("statsz destinations = %+v, want solved=1 failed=1", sz.Destinations)
	}
	if st := getJSON(t, ts, "/healthz", &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("healthz after chaos = %d %+v", st, hz)
	}
}

// TestChaosAllTCsPanicContained: a solver panic inside an all-tcs repair
// happens on the engine's worker goroutine, where net/http's handler
// recovery cannot reach it; the engine must contain it. The request
// answers 200 with its one problem failed, and the same server answers
// the next request.
func TestChaosAllTCsPanicContained(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer faultinject.Reset()
	lr := loadFigure2a(t, ts)

	if err := faultinject.Set(faultinject.SATSolvePanic, "1*panic"); err != nil {
		t.Fatal(err)
	}
	req := RepairRequest{Session: lr.Session, Policies: "reachable S T 2\n", Options: cpr.OptionFlags{Granularity: "all-tcs"}}
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", req, &rr); st != http.StatusOK {
		t.Fatalf("all-tcs repair under a solver panic: status = %d, want 200", st)
	}
	if rr.Solved || rr.Failed != 1 || len(rr.Problems) != 1 || rr.Problems[0].Error == "" {
		t.Fatalf("response = solved=%v failed=%d problems=%+v, want the one all-tcs problem failed with its error",
			rr.Solved, rr.Failed, rr.Problems)
	}
	if st := postJSON(t, ts, "/v1/repair", req, &rr); st != http.StatusOK || !rr.Solved {
		t.Fatalf("next repair = %d solved=%v, want a clean solve on the same server", st, rr.Solved)
	}
	sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if sz.Destinations.Failed != 1 || sz.Destinations.Solved != 1 || sz.Solves.Completed != 2 {
		t.Errorf("statsz destinations = %+v solves = %+v, want failed=1 solved=1 completed=2", sz.Destinations, sz.Solves)
	}
}

// TestChaosUnfaithfulPatchIs500: when a compressed repair's patched text
// fails its read-back (forced by the cpr/replay-error failpoint), the
// daemon answers 500 with an error naming the failing policy: the fault
// is the daemon's, not the request's. The failure is not memoized, so the
// same request answers 200, solved on quotients, once the failpoint
// clears.
func TestChaosUnfaithfulPatchIs500(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer faultinject.Reset()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc32", Routers: 32, Subnets: 12,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 3,
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
	req := RepairRequest{Session: lr.Session, Policies: policy.Format(inst.Policies)}

	if err := faultinject.Set(faultinject.CPRReplayError, "error"); err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if st := postJSON(t, ts, "/v1/repair", req, &er); st != http.StatusInternalServerError {
		t.Fatalf("unfaithful patch: status = %d, want 500", st)
	}
	if !strings.Contains(er.Error, cpr.ErrUnfaithfulPatch.Error()) || !strings.Contains(er.Error, "fails on the patched text") {
		t.Errorf("error = %q, want the unfaithful-patch error naming a policy", er.Error)
	}

	faultinject.Reset()
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", req, &rr); st != http.StatusOK || !rr.Solved || rr.Compressed == 0 {
		t.Fatalf("after the failpoint: status %d solved=%v compressed=%d, want a solved compressed repair",
			st, rr.Solved, rr.Compressed)
	}
}
