package server

import (
	"net/http"
	"testing"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/faultinject"
)

// TestChaosIncrementalSessionSurvivesDeltaFaults drives the incremental
// layer through its failpoints: an injected /v1/delta failure must
// surface as a clean 400 without poisoning the session cache, the
// retried delta must still replay every sub-problem from the base
// session's forked cache, and a fault-degraded repair on the reused
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

	// A starved solve on the reused session degrades — and the degraded
	// output must not stick: with injection cleared the identical request
	// re-solves cleanly instead of replaying the degraded result.
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	const spec = "reachable S T 2\n"
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: dr.Session, Policies: spec}, &rr); st != http.StatusOK {
		t.Fatalf("starved repair: status = %d, want 200", st)
	}
	if rr.Solved || rr.Degraded != 1 {
		t.Fatalf("starved repair = solved=%v degraded=%d, want one degraded destination", rr.Solved, rr.Degraded)
	}
	faultinject.Reset()
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{Session: dr.Session, Policies: spec}, &rr); st != http.StatusOK || !rr.Solved || rr.Degraded != 0 {
		t.Fatalf("post-chaos repair = %d solved=%v degraded=%d, want a clean solve (degraded output must not be memoized)",
			st, rr.Solved, rr.Degraded)
	}

	sz := srv.stats.snapshot(srv.cache.len(), srv.cache.retained())
	if sz.Cache.DeltaBuilds == 0 {
		t.Errorf("statsz delta builds = 0, want at least the retried build: %+v", sz.Cache)
	}
}

// TestChaosDaemonSurvivesInjectedFaults drives a live daemon through
// the server-side failpoints: a cache build failure must surface as a
// clean 400 (not a crash or a poisoned cache entry), a starved solver
// must yield a degraded-but-usable repair response with accurate
// per-destination outcomes and /statsz counters, and /healthz must stay
// up throughout.
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

	// Permanently starved solver: the PC3-only repair must degrade to the
	// greedy baseline, and the response must say so per destination.
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	var rr RepairResponse
	if st := postJSON(t, ts, "/v1/repair", RepairRequest{
		Session: lr.Session, Policies: "reachable S T 2\n",
	}, &rr); st != http.StatusOK {
		t.Fatalf("degraded repair: status = %d, want 200", st)
	}
	if rr.Solved || rr.Degraded != 1 || rr.Failed != 0 {
		t.Fatalf("degraded repair = solved=%v degraded=%d failed=%d, want one degraded destination",
			rr.Solved, rr.Degraded, rr.Failed)
	}
	if len(rr.PatchedConfigs) == 0 || rr.Plan == "" {
		t.Error("degraded repair produced no patch")
	}
	found := false
	for _, pr := range rr.Problems {
		if pr.Outcome == "degraded" {
			found = true
			if pr.Fallback != "greedy" || pr.Attempts < 2 || pr.Error == "" {
				t.Errorf("degraded problem = %+v, want greedy fallback after retries with an error", pr)
			}
		}
	}
	if !found {
		t.Error("no problem reported outcome=degraded")
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
	if sz.Destinations.Degraded != 1 || sz.Destinations.Solved != 1 || sz.Destinations.Failed != 0 {
		t.Errorf("statsz destinations = %+v, want solved=1 degraded=1 failed=0", sz.Destinations)
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
