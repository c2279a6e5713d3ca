// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), plus ablations over CPR's design choices and
// micro-benchmarks of the substrates. Each figure benchmark runs its
// experiment at a reduced-but-representative scale; cmd/cpreval runs the
// same experiments at the paper's full dimensions.
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
	"repro/internal/eval"
	"repro/internal/generate"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
	"repro/internal/topology"
	"repro/internal/translate"
)

// benchCfg is the reduced scale shared by the figure benchmarks.
func benchCfg() eval.Config {
	cfg := eval.Quick()
	cfg.CorpusNetworks = 3
	cfg.SubnetScale = 0.3
	cfg.PolicySweep = []int{6}
	cfg.SizeSweepK = []int{4}
	cfg.Fig8aPolicies = 4
	cfg.Fig8cPolicies = 6
	cfg.AllTCsBudget = 100000
	return cfg
}

// --- Table 1: policy-class verification characteristics ---

func benchVerify(b *testing.B, kind policy.Kind) {
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	var p policy.Policy
	switch kind {
	case policy.AlwaysBlocked:
		p = policy.Policy{Kind: kind, TC: topology.TrafficClass{Src: s, Dst: u}}
	case policy.AlwaysWaypoint:
		p = policy.Policy{Kind: kind, TC: topology.TrafficClass{Src: s, Dst: tt}}
	case policy.KReachable:
		p = policy.Policy{Kind: kind, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}}
	case policy.PrimaryPath:
		p = policy.Policy{Kind: kind, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Check(h, p)
	}
}

func BenchmarkTable1VerifyPC1(b *testing.B) { benchVerify(b, policy.AlwaysBlocked) }
func BenchmarkTable1VerifyPC2(b *testing.B) { benchVerify(b, policy.AlwaysWaypoint) }
func BenchmarkTable1VerifyPC3(b *testing.B) { benchVerify(b, policy.KReachable) }
func BenchmarkTable1VerifyPC4(b *testing.B) { benchVerify(b, policy.PrimaryPath) }

// --- Table 2/3: encoding and translation of the Figure 2a repair ---

func BenchmarkTable2RepairEncodingFig2a(b *testing.B) {
	n := topology.Figure2a()
	h := harc.Build(n)
	spec := figure2aPoliciesBench(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, spec, core.DefaultOptions())
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
	}
}

func BenchmarkTable3TranslateFig2a(b *testing.B) {
	sys, err := cpr.Load(config.Figure2aConfigs())
	if err != nil {
		b.Fatal(err)
	}
	spec := figure2aPoliciesBench(sys.Network)
	res, err := core.Repair(sys.HARC, spec, core.DefaultOptions())
	if err != nil || !res.Solved {
		b.Fatal("repair failed")
	}
	orig := harc.StateOf(sys.HARC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs, err := translate.CloneConfigs(sys.Configs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.Translate(sys.HARC, orig, res.State, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func figure2aPoliciesBench(n *topology.Network) []policy.Policy {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	return []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}},
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
	}
}

// --- Figures 6-11 ---

func benchFigure(b *testing.B, run func(*eval.Context) (*eval.Report, error)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := eval.NewContext(benchCfg())
		rep, err := run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("no rows produced")
		}
	}
}

func BenchmarkFig6PolicyMix(b *testing.B)      { benchFigure(b, eval.Fig6) }
func BenchmarkFig7RepairTime(b *testing.B)     { benchFigure(b, eval.Fig7) }
func BenchmarkFig8aPolicyClass(b *testing.B)   { benchFigure(b, eval.Fig8a) }
func BenchmarkFig8bPolicyCount(b *testing.B)   { benchFigure(b, eval.Fig8b) }
func BenchmarkFig8cNetworkSize(b *testing.B)   { benchFigure(b, eval.Fig8c) }
func BenchmarkFig9Minimality(b *testing.B)     { benchFigure(b, eval.Fig9) }
func BenchmarkFig11VsHandwritten(b *testing.B) { benchFigure(b, eval.Fig11) }

// --- Ablations over CPR's design choices (DESIGN.md) ---

// benchDCRepair times a repair of one mid-size corpus network.
func benchDCRepair(b *testing.B, opts core.Options) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v %+v", err, res)
		}
	}
}

// Granularity ablation (the §5.3 scalability claim).
func BenchmarkAblationGranularityPerDst(b *testing.B) {
	benchDCRepair(b, core.DefaultOptions())
}

func BenchmarkAblationGranularityAllTCs(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Granularity = core.AllTCs
	benchDCRepair(b, opts)
}

// MaxSAT algorithm ablation (the linear-descent reference vs stratified
// OLL, the engine repairs run).
func BenchmarkAblationMaxSATLinear(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Algorithm = maxsat.LinearDescent
	benchDCRepair(b, opts)
}

func BenchmarkAblationMaxSATOLL(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Algorithm = maxsat.OLL
	benchDCRepair(b, opts)
}

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

// Parallel per-destination solving (the "10 problems in parallel" claim).
func BenchmarkAblationParallel4(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	benchDCRepair(b, opts)
}

// Objective ablation: minimal devices changed instead of minimal lines
// (§5.2's alternative objective).
func BenchmarkAblationObjectiveDevices(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Objective = core.MinDevices
	benchDCRepair(b, opts)
}

// Greedy graph-algorithm baseline (§5's rejected alternative): repairs
// each violated policy in isolation with min-cut/max-flow, without
// cross-policy reasoning or minimality guarantees.
func BenchmarkAblationGreedyBaseline(b *testing.B) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedy.Repair(h, inst.Policies); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Symmetry compression (Bonsai-style quotient repair, DESIGN.md) ---

// benchCompressRepair times an end-to-end repair with compression forced
// on or off; the On/Off pairs below are the compression speedup
// evidence.
func benchCompressRepair(b *testing.B, h *harc.HARC, ps []policy.Policy, mode core.CompressMode) {
	opts := core.DefaultOptions()
	opts.Compress = mode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, ps, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
		if mode == core.CompressOn && res.Compressed == 0 {
			b.Fatalf("compression never engaged (fallbacks=%d)", res.CompressFallbacks)
		}
	}
}

// compressFatTreeInstance is the acceptance scenario: the fattree-k8
// preset (80 routers) with 12 violated policies across 8 destinations.
func compressFatTreeInstance(b *testing.B) (*harc.HARC, []policy.Policy) {
	b.Helper()
	inst, err := generate.Preset("fattree-k8", 11)
	if err != nil {
		b.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 13, 12); err != nil {
		b.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

// compressDCInstance is a mid-size leaf-spine network (64 routers, the
// dc-256 preset's shape at benchmarkable scale): symmetric enough to
// compress well, but with repair time dominated by the concrete-side
// HARC work, so the On/Off gap shows the compression floor rather than
// the fat-tree's best case.
func compressDCInstance(b *testing.B) (*harc.HARC, []policy.Policy) {
	b.Helper()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc64", Routers: 64, Subnets: 24,
		BlockedFrac: 0.3, FullyBlockedDsts: 2, Violations: 6, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

func BenchmarkCompressRepairFatTreeOn(b *testing.B) {
	h, ps := compressFatTreeInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOn)
}

func BenchmarkCompressRepairFatTreeOff(b *testing.B) {
	h, ps := compressFatTreeInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOff)
}

func BenchmarkCompressRepairDCOn(b *testing.B) {
	h, ps := compressDCInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOn)
}

func BenchmarkCompressRepairDCOff(b *testing.B) {
	h, ps := compressDCInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOff)
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
