// Benchmarks of the dc-256 solve stage, the substrates, the daemon and the
// public API. The evaluation's figures (§8) and the design-choice
// ablation are regenerated by cmd/cpreval (-experiment figN, ablation),
// and end-to-end claims go through go run ./bench.
package cpr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	cpr "repro"
	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

// --- The dc-256 solve stage ---

// benchDC256SolveStage repairs the broken dc-256 preset and reports the
// SAT-solve stage's share (summed SolveNs across sub-problems) as
// solve-ns/op alongside the end-to-end time. Under OLL the solve stage
// is about a seventh of the repair — encoding owns the rest — and the
// OLL/Linear pair is the core-guided engine's headline speedup evidence.
func benchDC256SolveStage(b *testing.B, algo maxsat.Algorithm) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	opts := core.DefaultOptions()
	opts.Algorithm = algo
	var solveNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
		for _, st := range res.Stats {
			solveNs += st.SolveNs
		}
	}
	b.ReportMetric(float64(solveNs)/float64(b.N), "solve-ns/op")
}

func BenchmarkRepairDC256SolveStageOLL(b *testing.B) {
	benchDC256SolveStage(b, maxsat.OLL)
}

func BenchmarkRepairDC256SolveStageLinear(b *testing.B) {
	benchDC256SolveStage(b, maxsat.LinearDescent)
}

// --- Substrate micro-benchmarks ---

func BenchmarkSubstrateSATRandom3SAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		s := sat.New()
		const nvars = 120
		for v := 0; v < nvars; v++ {
			s.NewVar()
		}
		for c := 0; c < 4*nvars; c++ {
			s.AddClause(
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
			)
		}
		s.Solve()
	}
}

func BenchmarkSubstrateETGConstruction(b *testing.B) {
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC3: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := inst.Network
	tcs := n.TrafficClasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harc.BuildForTCs(n, tcs[i%len(tcs):i%len(tcs)+1])
	}
}

func BenchmarkSubstrateHARCBuild(b *testing.B) {
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC3: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harc.Build(inst.Network)
	}
}

func BenchmarkSubstrateParseExtract(b *testing.B) {
	texts := config.Figure2aConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cfgs []*config.Config
		for name, text := range texts {
			c, err := config.Parse(name, text)
			if err != nil {
				b.Fatal(err)
			}
			cfgs = append(cfgs, c)
		}
		if _, err := config.Extract(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateFatTreeGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 2, PC3: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// The verification benchmarks below are for profiling, not for claims
// (those go through ./bench). They run on the dc-256 preset of the
// dc256-oneshot workload and, for the sweep, on a Figure-7-sized data
// center as well.

func BenchmarkSubstrateVerifyAllPolicies(b *testing.B) {
	dc8, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 12, BlockedFrac: 0.3, Violations: 2, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	dc256, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		inst *generate.Instance
	}{{"dc-8", dc8}, {"dc-256", dc256}} {
		b.Run(c.name, func(b *testing.B) {
			// A HARC keeps the verdicts a sweep finds, so each iteration
			// sweeps a fresh one, built outside the timer.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := harc.Build(c.inst.Network)
				b.StartTimer()
				policy.Violations(h, c.inst.Policies)
			}
		})
	}
}

// BenchmarkSubstrateLinkDisjointFlow times one PC3 check, cycling through
// the tcETG of every PC3 policy of the instance at k = 2.
func BenchmarkSubstrateLinkDisjointFlow(b *testing.B) {
	b.Run("dc-256", func(b *testing.B) {
		inst, err := generate.Preset("dc-256", 7)
		if err != nil {
			b.Fatal(err)
		}
		h := inst.Harc()
		var etgs []*arc.ETG
		for _, p := range inst.Policies {
			if p.Kind == policy.KReachable {
				etgs = append(etgs, h.TCETG(p.TC))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arc.LinkDisjointFlow(etgs[i%len(etgs)], 2)
		}
	})
}

// --- cprd daemon benchmarks ---

// benchPost is the JSON POST helper shared by the server benchmarks.
func benchPost(b *testing.B, url, path string, body, out any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s status = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		b.Fatal(err)
	}
}

func benchStatsz(b *testing.B, url string) server.Statsz {
	b.Helper()
	var sz server.Statsz
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		b.Fatal(err)
	}
	return sz
}

// BenchmarkServerRepairChurn measures the incremental-repair regime:
// each iteration posts a one-device config delta (toggling an ACL on a
// device no policy traffic class crosses) and repairs the resulting
// session. After the first toggle cycle both content keys are cached
// with warm solve caches, so the steady state is one /v1/delta cache hit
// plus one /v1/repair that replays every sub-problem — no SAT solving:
// an order of magnitude below a full re-solve (the bench ledger's
// session.repair_replay_ms against session.repair_miss_ms).
func BenchmarkServerRepairChurn(b *testing.B) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	configs := config.Figure2aConfigs()
	var lr server.LoadResponse
	benchPost(b, ts.URL, "/v1/load", server.LoadRequest{Configs: configs}, &lr)
	const spec = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"

	// Warm the base session's solve cache once, then alternate between
	// the original device C text and a variant with an extra ACL.
	var rr server.RepairResponse
	benchPost(b, ts.URL, "/v1/repair", server.RepairRequest{Session: lr.Session, Policies: spec}, &rr)
	if !rr.Solved {
		b.Fatal("warmup repair unsolved")
	}
	variants := [2]string{
		configs["C"] + "ip access-list extended CHURN\n deny ip 10.40.0.0 0.0.255.255 10.10.0.0 0.0.255.255\n permit ip any any\n!\n",
		configs["C"],
	}

	// One full toggle cycle before the timer builds both delta sessions
	// and warms their caches, so even a single timed iteration measures
	// the steady state rather than the first-toggle session build.
	session := lr.Session
	churn := func(i int) {
		var dr server.DeltaResponse
		benchPost(b, ts.URL, "/v1/delta", server.DeltaRequest{
			Session: session,
			Configs: map[string]string{"C": variants[i%2]},
		}, &dr)
		session = dr.Session
		var rr server.RepairResponse
		benchPost(b, ts.URL, "/v1/repair", server.RepairRequest{Session: session, Policies: spec}, &rr)
		if !rr.Solved {
			b.Fatal("churn repair unsolved")
		}
		if rr.Reused != len(rr.Problems) {
			b.Fatalf("churn repair reused %d of %d sub-problems, want all (the bench must measure replay, not re-solving)",
				rr.Reused, len(rr.Problems))
		}
	}
	for i := 0; i < 4; i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.StopTimer()

	sz := benchStatsz(b, ts.URL)
	if sz.Cache.Builds != 1 {
		b.Fatalf("builds = %d, want 1", sz.Cache.Builds)
	}
	// Only the first toggle of each variant derives a new session; all
	// later deltas hit the cache by content key.
	if sz.Cache.DeltaBuilds > 2 {
		b.Fatalf("delta builds = %d, want ≤2 (oscillating churn must hit the session cache)", sz.Cache.DeltaBuilds)
	}
}

// Sanity: the bench configuration still produces a verifiable repair.
func BenchmarkEndToEndPublicAPI(b *testing.B) {
	texts := config.Figure2aConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := cpr.Load(texts)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := sys.ParsePolicies(fmt.Sprintf("reachable S T %d\n", 2))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Repair(spec, cpr.DefaultOptions())
		if err != nil || !rep.Solved() {
			b.Fatal("repair failed")
		}
	}
}
