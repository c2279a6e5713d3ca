package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/generate"
	"repro/internal/policy"
	"repro/internal/server"
)

// testFleet is an in-process fleet: n cprd workers behind one front.
type testFleet struct {
	front   *Front
	frontTS *httptest.Server
	workers []*httptest.Server
}

func newFleet(t *testing.T, n int, cfg Config) *testFleet {
	t.Helper()
	tf := &testFleet{}
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		tf.workers = append(tf.workers, ts)
		cfg.Replicas = append(cfg.Replicas, ts.URL)
	}
	tf.front = New(cfg)
	tf.frontTS = httptest.NewServer(tf.front.Handler())
	t.Cleanup(tf.close)
	return tf
}

func (tf *testFleet) close() {
	tf.frontTS.Close()
	tf.front.Close()
	for _, ts := range tf.workers {
		ts.Close()
	}
}

// addWorker spins up a fresh cprd and joins it to the ring.
func (tf *testFleet) addWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	tf.workers = append(tf.workers, ts)
	tf.front.AddReplica(ts.URL)
	return ts
}

// postVia posts JSON to a base URL and decodes the reply, returning the
// status and the serving replica (X-Cpr-Replica, empty when direct).
func postVia(t *testing.T, base, path string, body, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %.200s)", path, err, data)
		}
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader)
}

func loadVia(t *testing.T, base string, configs map[string]string) server.LoadResponse {
	t.Helper()
	var lr server.LoadResponse
	st, _ := postVia(t, base, "/v1/load", server.LoadRequest{Configs: configs}, &lr)
	if st != http.StatusOK {
		t.Fatalf("load: status %d", st)
	}
	return lr
}

// canonRepair reduces a repair response to its deterministic content:
// everything except wall-clock timings and cache-warmth markers, which
// legitimately differ between replicas answering the same question.
func canonRepair(rr server.RepairResponse) string {
	probs := ""
	for _, p := range rr.Problems {
		probs += fmt.Sprintf("|%s:%s:%s:v%d:c%d", p.Label, p.Status, p.Outcome, p.Violations, p.Conflicts)
	}
	return fmt.Sprintf("solved=%v failed=%d changes=%d lines=%d conflicts=%d plan=%q patched=%s probs=%s",
		rr.Solved, rr.Failed, rr.Changes, rr.Lines, rr.Conflicts, rr.Plan, cpr.ContentKey(rr.PatchedConfigs), probs)
}

func TestFrontRoutesByContentAddress(t *testing.T) {
	tf := newFleet(t, 3, Config{ProbeInterval: 20 * time.Second})
	cfgs := config.Figure2aConfigs()
	key := cpr.ContentKey(cfgs)

	lr := loadVia(t, tf.frontTS.URL, cfgs)
	if lr.Session != key {
		t.Fatalf("session %s, want content key %s", lr.Session, key)
	}
	owner := tf.front.Owner(key)
	// The same load, repeated, always lands on the ring owner.
	for i := 0; i < 3; i++ {
		var again server.LoadResponse
		st, replica := postVia(t, tf.frontTS.URL, "/v1/load", server.LoadRequest{Configs: cfgs}, &again)
		if st != http.StatusOK || replica != owner {
			t.Fatalf("load %d: status %d via %s, want 200 via owner %s", i, st, replica, owner)
		}
	}
	// Verify on the session routes to the same owner and answers like a
	// direct single-node query.
	var fleetV, directV server.VerifyResponse
	st, replica := postVia(t, tf.frontTS.URL, "/v1/verify", server.VerifyRequest{Session: key, Policies: figure2aPolicies}, &fleetV)
	if st != http.StatusOK {
		t.Fatalf("verify via front: status %d", st)
	}
	if replica != owner {
		t.Errorf("verify served by %s, want owner %s", replica, owner)
	}
	direct := httptest.NewServer(server.New(server.Config{}).Handler())
	defer direct.Close()
	loadVia(t, direct.URL, cfgs)
	if st, _ := postVia(t, direct.URL, "/v1/verify", server.VerifyRequest{Session: key, Policies: figure2aPolicies}, &directV); st != http.StatusOK {
		t.Fatalf("verify direct: status %d", st)
	}
	if fmt.Sprint(fleetV) != fmt.Sprint(directV) {
		t.Errorf("fleet verify %+v != single-node verify %+v", fleetV, directV)
	}

	// Distinct content addresses spread across replicas (64 vnodes, 81
	// variants: all three replicas should own at least one).
	seen := map[string]bool{}
	for id := 0; id < 12; id++ {
		vc, err := VariantConfigs(id)
		if err != nil {
			t.Fatalf("variant %d: %v", id, err)
		}
		seen[tf.front.Owner(cpr.ContentKey(vc))] = true
	}
	if len(seen) < 2 {
		t.Errorf("12 variants all owned by %v, want spread over >1 replica", seen)
	}
}

func TestFrontRelays404FromOwnerOnly(t *testing.T) {
	tf := newFleet(t, 3, Config{ProbeInterval: 20 * time.Second})
	var vr server.VerifyResponse
	st, replica := postVia(t, tf.frontTS.URL, "/v1/verify", server.VerifyRequest{Session: "no-such-session", Policies: "reachable S T 2\n"}, &vr)
	if st != http.StatusNotFound {
		t.Fatalf("verify of unknown session: status %d, want 404", st)
	}
	if owner := tf.front.Owner("no-such-session"); replica != owner {
		t.Errorf("authoritative 404 served by %s, want owner %s", replica, owner)
	}
}

// TestFrontFailoverMidRequest kills the owning replica mid-repair (the
// server/repair-abort failpoint tears the connection down exactly like a
// crashed process) and requires the front to fail over to the ring
// successor — which holds the session via background replication — with
// a byte-identical answer and no goroutine leaks.
func TestFrontFailoverMidRequest(t *testing.T) {
	g0 := runtime.NumGoroutine()

	// A 20s probe interval holds every lease (3×20s) for the whole test.
	tf := newFleet(t, 3, Config{ProbeInterval: 20 * time.Second})
	cfgs := config.Figure2aConfigs()
	key := cpr.ContentKey(cfgs)
	loadVia(t, tf.frontTS.URL, cfgs)
	// Wait out the background session replication so the successor is
	// warm before the primary dies.
	tf.front.replWG.Wait()

	cands := tf.front.Candidates(key)
	if len(cands) != 3 {
		t.Fatalf("candidates = %v, want 3", cands)
	}

	// Reference answer first: a clean single-node repair of the same set.
	direct := httptest.NewServer(server.New(server.Config{}).Handler())
	defer direct.Close()
	loadVia(t, direct.URL, cfgs)
	var want server.RepairResponse
	if st, _ := postVia(t, direct.URL, "/v1/repair", server.RepairRequest{Session: key, Policies: figure2aPolicies}, &want); st != http.StatusOK {
		t.Fatalf("direct repair: status %d", st)
	}

	// Two aborts: the primary's attempt and its one same-replica retry.
	// The failpoint is then exhausted, so the successor's answer proves
	// the front failed over after the retry rather than retrying again.
	if err := faultinject.Set(faultinject.ServerRepairAbort, "2*error"); err != nil {
		t.Fatalf("arming failpoint: %v", err)
	}
	defer faultinject.Reset()

	var got server.RepairResponse
	st, replica := postVia(t, tf.frontTS.URL, "/v1/repair", server.RepairRequest{Session: key, Policies: figure2aPolicies}, &got)
	if st != http.StatusOK {
		t.Fatalf("repair with primary crash: status %d, want 200 via failover", st)
	}
	if replica != cands[1] {
		t.Errorf("failover served by %s, want ring successor %s (candidates %v)", replica, cands[1], cands)
	}
	if canonRepair(got) != canonRepair(want) {
		t.Errorf("failover answer differs from single-node:\n fleet: %s\nsingle: %s", canonRepair(got), canonRepair(want))
	}
	status := tf.front.Status()
	if status.Routing.Failovers == 0 {
		t.Error("routing stats recorded no failover")
	}
	if status.Routing.Retries != retriesPerReplica {
		t.Errorf("routing stats recorded %d retries, want %d on the primary before failover", status.Routing.Retries, retriesPerReplica)
	}

	// The primary was marked down by the transport failure; a probe round
	// resurrects it (the process is still alive).
	if owner := tf.front.candidatesFor(key, kindQuery); len(owner) != 2 {
		t.Errorf("post-crash eligible candidates = %d, want 2 (primary down)", len(owner))
	}
	tf.front.ProbeNow()
	if owner := tf.front.candidatesFor(key, kindQuery); len(owner) != 3 {
		t.Errorf("post-probe eligible candidates = %d, want 3 (primary resurrected)", len(owner))
	}

	// Everything down: no goroutines may outlive the fleet.
	tf.close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= g0+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after fleet shutdown, started with %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontRelaysUnfaithfulPatch: a replica's 500 for a compressed
// repair whose patched text fails its read-back (the cpr/replay-error
// failpoint) is the daemon's own fault, the same on every replica, so the
// front relays it from the owner without a retry or a failover.
func TestFrontRelaysUnfaithfulPatch(t *testing.T) {
	tf := newFleet(t, 2, Config{ProbeInterval: 20 * time.Second})
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc32", Routers: 32, Subnets: 12,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make(map[string]string, len(inst.Configs))
	for name, c := range inst.Configs {
		cfgs[name] = c.Print()
	}
	lr := loadVia(t, tf.frontTS.URL, cfgs)
	tf.front.replWG.Wait()
	if err := faultinject.Set(faultinject.CPRReplayError, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	st, replica := postVia(t, tf.frontTS.URL, "/v1/repair",
		server.RepairRequest{Session: lr.Session, Policies: policy.Format(inst.Policies)}, nil)
	if st != http.StatusInternalServerError {
		t.Fatalf("repair with an unfaithful patch: status %d, want 500", st)
	}
	if owner := tf.front.Owner(lr.Session); replica != owner {
		t.Errorf("500 served by %s, want owner %s", replica, owner)
	}
	if r := tf.front.Status().Routing; r.Retries != 0 || r.Failovers != 0 {
		t.Errorf("routing retries %d failovers %d, want none", r.Retries, r.Failovers)
	}
	if n := faultinject.FiredCount(faultinject.CPRReplayError); n != 1 {
		t.Errorf("read-back failpoint fired %d times, want once", n)
	}
}

// TestFrontHedgesSlowOwner fires the hedge: the owner holds a request
// past hedgeAfter while the ring successor answers at once. The front
// must relay the successor's answer, count exactly one hedge, and cancel
// the owner's request.
func TestFrontHedgesSlowOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the hedge delay")
	}
	const key = "hedge-session"
	var slow atomic.Value // base URL of the replica that stalls
	cancelled := make(chan struct{})
	var workers []*httptest.Server
	var names []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if "http://"+r.Host == slow.Load() {
				// The server notices a closed connection only once the
				// body is read, as cprd's handlers read it.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				close(cancelled)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"answer":"successor"}`)
		}))
		workers = append(workers, ts)
		names = append(names, ts.URL)
	}
	front := New(Config{Replicas: names, ProbeInterval: 20 * time.Second})
	frontTS := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		frontTS.Close()
		front.Close()
		for _, ts := range workers {
			ts.Close()
		}
	})
	cands := front.Candidates(key)
	slow.Store(cands[0])

	start := time.Now()
	resp, err := http.Post(frontTS.URL+"/v1/verify", "application/json", strings.NewReader(`{"session":"`+key+`"}`))
	if err != nil {
		t.Fatalf("verify via front: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != `{"answer":"successor"}` {
		t.Fatalf("hedged verify: status %d body %s, want the successor's 200", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ReplicaHeader); got != cands[1] {
		t.Errorf("hedged verify served by %s, want ring successor %s", got, cands[1])
	}
	if waited := time.Since(start); waited < hedgeAfter {
		t.Errorf("answer after %v, before the %v hedge delay", waited, hedgeAfter)
	}
	if h := front.Status().Routing.Hedges; h != 1 {
		t.Errorf("hedges = %d, want 1", h)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the owner's losing request was never cancelled")
	}
}

// TestFrontRebalanceUnderChurn scales the fleet 3→2→4 while a seeded
// churn mix runs against it and requires zero failed requests: draining
// replicas finish their in-flight work, the front routes new sessions
// away immediately, and clients whose sessions moved re-load by content
// address (a reroute, not an error).
func TestFrontRebalanceUnderChurn(t *testing.T) {
	// Fast probing drives the lease clock; each probe still gets
	// minProbeTimeout, so a slow /readyz under -race does not mark a
	// healthy replica down.
	tf := newFleet(t, 3, Config{ProbeInterval: 50 * time.Millisecond})
	tf.front.Start()

	done := make(chan struct{})
	var report *Report
	var traces [][]string
	var runErr error
	go func() {
		defer close(done)
		report, traces, runErr = RunLoad(LoadOptions{
			Target:   tf.frontTS.URL,
			Mix:      "churn",
			Requests: 90,
			Clients:  3,
			Sessions: 2,
			Seed:     7,
			Trace:    true,
		})
	}()

	// Scale down 3→2: drain, let the lease run out (probes stop renewing
	// a draining replica), then remove.
	time.Sleep(50 * time.Millisecond)
	victim := tf.workers[2].URL
	if !tf.front.DrainReplica(victim) {
		t.Fatalf("drain %s: unknown replica", victim)
	}
	time.Sleep(250 * time.Millisecond) // > the lease (3×50ms)
	if !tf.front.RemoveReplica(victim) {
		t.Fatalf("remove %s: unknown replica", victim)
	}
	// Scale up 2→4 under the same live load.
	time.Sleep(50 * time.Millisecond)
	tf.addWorker(t)
	tf.addWorker(t)

	<-done
	if runErr != nil {
		t.Fatalf("load run: %v", runErr)
	}
	if report.Errors != 0 {
		for c, tr := range traces {
			for i, line := range tr {
				if strings.Contains(line, "error=") {
					t.Logf("client %d op %d: %s", c, i, line)
				}
			}
		}
		t.Fatalf("rebalance under churn: %d failed requests, want 0\n%s", report.Errors, report)
	}
	if report.Requests != 90 {
		t.Errorf("requests = %d, want 90", report.Requests)
	}
	t.Logf("rebalance 3→2→4: %d requests, %d reroutes, %d sheds\n%s", report.Requests, report.Reroutes, report.Sheds, report)
}

// TestDrainLeaseSemantics pins the replica state machine: draining
// replicas take no new sessions but keep serving queries until the lease
// — no longer renewed — expires, which is the forced-takeover clock.
func TestDrainLeaseSemantics(t *testing.T) {
	now := time.Now()
	ttl := 150 * time.Millisecond
	rep := &replica{name: "r", state: stateReady, leaseUntil: now.Add(ttl)}

	if !rep.eligible(kindCreate, now) || !rep.eligible(kindQuery, now) {
		t.Fatal("ready replica should take everything")
	}

	rep.opDrain = true
	rep.observeProbe(true, false, nil, ttl, now) // probe passes, but operator drain pins draining
	if rep.eligible(kindCreate, now) {
		t.Error("draining replica must not take new sessions")
	}
	if !rep.eligible(kindQuery, now) {
		t.Error("draining replica must keep serving queries while leased")
	}
	// Probes do not renew a draining lease; once it runs out the replica
	// serves nothing, even though the process still answers probes.
	rep.observeProbe(true, false, nil, ttl, now.Add(ttl))
	if rep.eligible(kindQuery, now.Add(ttl+time.Millisecond)) {
		t.Error("expired lease must end query eligibility")
	}

	// A down replica serves nothing immediately.
	rep2 := &replica{name: "r2", state: stateReady, leaseUntil: now.Add(ttl)}
	rep2.markDown(fmt.Errorf("connection refused"))
	if rep2.eligible(kindQuery, now) {
		t.Error("down replica must not serve queries")
	}
	// ...and a passing probe resurrects it with a fresh lease.
	rep2.observeProbe(true, false, nil, ttl, now)
	if !rep2.eligible(kindCreate, now.Add(ttl/2)) {
		t.Error("probed-back replica should serve again")
	}
}

func TestFrontReadyzAndAdmin(t *testing.T) {
	tf := newFleet(t, 2, Config{ProbeInterval: 20 * time.Second})

	get := func(path string) (int, []byte) {
		resp, err := http.Get(tf.frontTS.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz with 2 ready replicas: %d", st)
	}

	// Admin: drain one, add one, remove one.
	var fz Fleetz
	st, _ := postVia(t, tf.frontTS.URL, "/admin/replicas", AdminReplicasRequest{Drain: []string{tf.workers[0].URL}}, &fz)
	if st != http.StatusOK {
		t.Fatalf("admin drain: status %d", st)
	}
	found := false
	for _, rs := range fz.Replicas {
		if rs.Name == tf.workers[0].URL {
			found = true
			if rs.State != "draining" {
				t.Errorf("drained replica state = %s", rs.State)
			}
		}
	}
	if !found {
		t.Fatalf("drained replica missing from fleetz: %+v", fz)
	}
	if st, _ := postVia(t, tf.frontTS.URL, "/admin/replicas", AdminReplicasRequest{Drain: []string{"http://nope"}}, nil); st != http.StatusNotFound {
		t.Errorf("draining unknown replica: status %d, want 404", st)
	}

	// Remove every replica: the front stays alive but not ready, and
	// forwards shed with a Retry-After.
	for _, ts := range tf.workers {
		tf.front.RemoveReplica(ts.URL)
	}
	if st, body := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Errorf("readyz with no replicas: %d (%s)", st, body)
	}
	buf, _ := json.Marshal(server.LoadRequest{Configs: config.Figure2aConfigs()})
	resp, err := http.Post(tf.frontTS.URL+"/v1/load", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("load with no replicas: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("load with no replicas: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

// TestRunLoadSingleNode smoke-tests the load generator against one bare
// cprd: a seeded mixed run completes with zero errors and a coherent
// report, and the same seed reproduces the same canonical traces.
func TestRunLoadSingleNode(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	opts := LoadOptions{Target: ts.URL, Mix: "mixed", Requests: 40, Clients: 2, Sessions: 2, Seed: 11, Trace: true}
	report, traces, err := RunLoad(opts)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if report.Errors != 0 {
		t.Fatalf("single-node run had %d errors:\n%s", report.Errors, report)
	}
	if report.Requests != 40 {
		t.Errorf("requests = %d, want 40", report.Requests)
	}
	if report.All.Count != 40 || report.All.P50MS <= 0 {
		t.Errorf("aggregate stats incoherent: %+v", report.All)
	}
	if len(traces) != 2 {
		t.Fatalf("traces for %d clients, want 2", len(traces))
	}

	report2, traces2, err := RunLoad(opts)
	if err != nil {
		t.Fatalf("RunLoad (repeat): %v", err)
	}
	if report2.Errors != 0 {
		t.Fatalf("repeat run had %d errors", report2.Errors)
	}
	for c := range traces {
		if len(traces[c]) != len(traces2[c]) {
			t.Fatalf("client %d: %d ops vs %d ops across identical seeds", c, len(traces[c]), len(traces2[c]))
		}
		for i := range traces[c] {
			if traces[c][i] != traces2[c][i] {
				t.Errorf("client %d op %d differs across identical seeds:\n a: %s\n b: %s", c, i, traces[c][i], traces2[c][i])
			}
		}
	}

	if _, _, err := RunLoad(LoadOptions{Target: ts.URL, Mix: "bogus"}); err == nil {
		t.Error("unknown mix should error")
	}
}
