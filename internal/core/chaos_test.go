package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// chaosSites are the failpoints the campaign must fire at least once
// (the server cache failpoint is covered by the server package's suite).
var chaosSites = []string{
	faultinject.SATSolvePanic,
	faultinject.SATSpuriousInterrupt,
	faultinject.SATBudgetStarve,
	faultinject.CoreEncodeError,
	faultinject.CoreEncodeSlow,
}

// chaosSeed returns the campaign's RNG seed: CHAOS_SEED if set (so a CI
// failure is replayable), 1 otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		return seed
	}
	return 1
}

// checkChaosInvariants asserts what must hold after ANY repair, faults
// or not: a result (never an error, never a crash), every sub-problem
// classified, counts consistent, and the partial state verified against
// exactly the policies the result claims repaired.
func checkChaosInvariants(t *testing.T, h *harc.HARC, res *Result, err error, round string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: repair returned error %v, want fault containment", round, err)
	}
	if res == nil {
		t.Fatalf("%s: nil result", round)
	}
	solved, degraded, failed := 0, 0, 0
	for _, st := range res.Stats {
		switch st.Outcome {
		case OutcomeSolved:
			solved++
		case OutcomeDegraded:
			degraded++
			if st.Fallback != "greedy" {
				t.Errorf("%s: degraded problem %q fallback = %q, want greedy", round, st.Label, st.Fallback)
			}
		case OutcomeFailed:
			failed++
			if st.Err == "" {
				t.Errorf("%s: failed problem %q has no error", round, st.Label)
			}
		default:
			t.Errorf("%s: problem %q has unclassified outcome %d", round, st.Label, st.Outcome)
		}
	}
	if degraded != res.Degraded || failed != res.Failed {
		t.Errorf("%s: counters degraded=%d failed=%d, stats say %d/%d", round, res.Degraded, res.Failed, degraded, failed)
	}
	if res.Solved != (degraded == 0 && failed == 0) {
		t.Errorf("%s: Solved=%v with %d degraded %d failed", round, res.Solved, degraded, failed)
	}
	if (solved > 0 || degraded > 0) != res.Usable() {
		t.Errorf("%s: Usable=%v with %d solved %d degraded", round, res.Usable(), solved, degraded)
	}
	if bad := VerifyRepair(h, res.State, res.Repaired); len(bad) != 0 {
		t.Errorf("%s: state violates %d repaired policies (first: %s)", round, len(bad), bad[0])
	}
}

// TestChaosCampaign drives the repair pipeline through every
// failpoint — first one site at a time (finite then unlimited faults),
// then seeded random combinations — and checks after every round that
// faults were contained, outcomes are accurate, and every destination
// reported repaired actually verifies.
func TestChaosCampaign(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos campaign seed %d (set CHAOS_SEED to replay)", seed)
	rng := rand.New(rand.NewSource(seed))

	inst := dcInstance(t)
	h := inst.Harc()
	opts := DefaultOptions()
	defer faultinject.Reset()

	specFor := func(site string, count int) string {
		prefix := ""
		if count > 0 {
			prefix = fmt.Sprintf("%d*", count)
		}
		switch site {
		case faultinject.SATSolvePanic:
			return prefix + "panic"
		case faultinject.CoreEncodeSlow:
			return prefix + "sleep(1ms)"
		default:
			return prefix + "error"
		}
	}

	// Phase 1: each site alone, finite count — retries must absorb the
	// fault and the repair still fully solves.
	for _, site := range chaosSites {
		faultinject.Reset()
		if err := faultinject.Set(site, specFor(site, 1)); err != nil {
			t.Fatal(err)
		}
		res, err := Repair(h, inst.Policies, opts)
		round := "finite " + site
		checkChaosInvariants(t, h, res, err, round)
		if !res.Solved {
			t.Errorf("%s: one transient fault was not absorbed by retries (degraded=%d failed=%d)",
				round, res.Degraded, res.Failed)
		}
	}

	// Phase 2: each site alone, unlimited — every attempt fails, so each
	// problem must land on the greedy fallback or be marked failed, with
	// the process never crashing.
	for _, site := range chaosSites {
		faultinject.Reset()
		if err := faultinject.Set(site, specFor(site, 0)); err != nil {
			t.Fatal(err)
		}
		res, err := Repair(h, inst.Policies, opts)
		round := "unlimited " + site
		checkChaosInvariants(t, h, res, err, round)
		if site == faultinject.CoreEncodeSlow {
			if !res.Solved {
				t.Errorf("%s: slow encode must not fail problems", round)
			}
		} else if res.Solved {
			t.Errorf("%s: repair claims fully solved under a permanent fault", round)
		}
	}

	// Phase 3: seeded random combinations of sites, counts, and budgets.
	for round := 0; round < 6; round++ {
		faultinject.Reset()
		armed := []string{}
		for _, site := range chaosSites {
			if rng.Intn(2) == 0 {
				continue
			}
			count := rng.Intn(4) // 0 = unlimited
			if err := faultinject.Set(site, specFor(site, count)); err != nil {
				t.Fatal(err)
			}
			armed = append(armed, specFor(site, count)+"@"+site)
		}
		o := opts
		if rng.Intn(2) == 0 {
			o.ConflictBudget = int64(1000 + rng.Intn(10000))
		}
		o.Parallelism = 1 + rng.Intn(4)
		res, err := Repair(h, inst.Policies, o)
		checkChaosInvariants(t, h, res, err, fmt.Sprintf("random round %d %v", round, armed))
	}

	// Coverage: the campaign must have fired every registered failpoint
	// (fired counts survive Reset by design).
	for _, site := range chaosSites {
		if faultinject.FiredCount(site) == 0 {
			t.Errorf("failpoint %s never fired during the campaign", site)
		}
	}
}

// figure2aPC3 is Figure 2a with only its (violated) PC3 policy: one
// greedy-eligible sub-problem.
func figure2aPC3() (*harc.HARC, []policy.Policy) {
	n := topology.Figure2a()
	return harc.Build(n), []policy.Policy{{
		Kind: policy.KReachable, K: 2,
		TC: topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")},
	}}
}

// TestDegradedFallbackVerifies pins the degradation path end to end on a
// deterministic instance: with the solver permanently starved, the PC3
// problem must fall back to the greedy baseline, be realized as
// per-destination constructs, and the merged state must satisfy the
// policy.
func TestDegradedFallbackVerifies(t *testing.T) {
	h, ps := figure2aPC3()
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	res, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 1 || res.Failed != 0 || res.Solved {
		t.Fatalf("degraded=%d failed=%d solved=%v, want exactly one degraded problem",
			res.Degraded, res.Failed, res.Solved)
	}
	st := res.Stats[0]
	if st.Outcome != OutcomeDegraded || st.Fallback != "greedy" {
		t.Errorf("stat = outcome %s fallback %q, want degraded via greedy", st.Outcome, st.Fallback)
	}
	if st.Attempts != maxAttempts {
		t.Errorf("attempts = %d, want %d (budget escalation exhausted)", st.Attempts, maxAttempts)
	}
	if st.Err == "" {
		t.Error("degraded stat lost the error that forced the fallback")
	}
	if !res.Usable() {
		t.Error("degraded result not usable")
	}
	if bad := VerifyRepair(h, res.State, ps); len(bad) != 0 {
		t.Fatalf("degraded state violates %v", bad)
	}
	if res.Changes == 0 {
		t.Error("degraded repair reports zero changes")
	}
}

// compressibleChaosInstance returns a broken k=4 fat-tree: small enough
// for the chaos suite, symmetric enough that the quotient builder finds
// real device classes, so compressed repairs reach the acceptance check
// the failpoint below targets.
func compressibleChaosInstance(t *testing.T) (*harc.HARC, []policy.Policy) {
	t.Helper()
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 2, PC2: 1, PC3: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 3, 2); err != nil {
		t.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

// TestChaosReverifyFallback arms the acceptance-check failpoint (a
// simulated disagreement between the concretized patch and the concrete
// network) and pins the degraded path: every affected sub-problem falls
// back at stage "reverify", re-solves uncompressed to the same state the
// compress-off run produces, and nothing fallback-tainted is ever cached.
func TestChaosReverifyFallback(t *testing.T) {
	const site, stage = faultinject.CoreReverifyError, "reverify"
	h, ps := compressibleChaosInstance(t)

	off := DefaultOptions()
	off.Compress = CompressOff
	base, err := Repair(h, ps, off)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Solved {
		t.Fatalf("uncompressed baseline unsolved: %+v", base.Stats)
	}

	if err := faultinject.Set(site, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	opts := DefaultOptions()
	opts.Compress = CompressOn
	opts.Cache = NewSolveCache("chaos-reverify")
	res, err := Repair(h, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("verification fallback did not re-solve uncompressed: degraded=%d failed=%d",
			res.Degraded, res.Failed)
	}
	atStage := 0
	for _, st := range res.Stats {
		if st.Compressed {
			t.Errorf("problem %s accepted a quotient solve despite the armed %s failpoint", st.Label, site)
		}
		if st.CompressFallback == stage {
			atStage++
		}
	}
	if atStage == 0 {
		t.Fatalf("failpoint %s armed but no sub-problem fell back at stage %q (stats: %+v)",
			site, stage, res.Stats)
	}
	// The fallback path is full concrete re-solving, so the outcome must
	// be byte-identical to the compress-off optimum.
	if !res.State.Equal(base.State) {
		t.Error("fallback state differs from the uncompressed repair")
	}
	if res.Changes != base.Changes {
		t.Errorf("fallback cost %d changes, uncompressed %d", res.Changes, base.Changes)
	}
	if bad := VerifyRepair(h, res.State, res.Repaired); len(bad) != 0 {
		t.Fatalf("fallback state violates %d repaired policies (first: %s)", len(bad), bad[0])
	}

	// Fallback-tainted outcomes must never be cached: with the fault
	// cleared, a repeat repair through the same cache must re-solve from
	// scratch (zero replays) and now compress cleanly.
	faultinject.Reset()
	res2, err := Repair(h, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reused != 0 {
		t.Errorf("replayed %d fallback-tainted sub-problems from the cache, want 0", res2.Reused)
	}
	if res2.Compressed == 0 {
		t.Errorf("clean re-run never compressed (fallbacks=%d)", res2.CompressFallbacks)
	}
	for _, st := range res2.Stats {
		if st.CompressFallback == stage {
			t.Errorf("problem %s still falls back at %q with the failpoint cleared", st.Label, stage)
		}
	}
	// The lossy quotient may cost more than the uncompressed optimum, so
	// the clean run is checked for soundness, not byte-identity.
	if bad := VerifyRepair(h, res2.State, res2.Repaired); len(bad) != 0 {
		t.Fatalf("clean compressed re-run violates %d repaired policies (first: %s)", len(bad), bad[0])
	}
}

// allTCsChaosInstance is the instance TestDegradedFallbackVerifies
// degrades per destination, as one monolithic problem.
func allTCsChaosInstance() (*harc.HARC, []policy.Policy, Options) {
	h, ps := figure2aPC3()
	opts := DefaultOptions()
	opts.Granularity = AllTCs
	return h, ps, opts
}

// TestChaosAllTCsSolvePanicContained: the monolithic problem runs in the
// same failure domain as a destination — a solver panic is a failed
// sub-problem naming the panic, not a dead process — but gets one attempt
// and no greedy fallback.
func TestChaosAllTCsSolvePanicContained(t *testing.T) {
	h, ps, opts := allTCsChaosInstance()
	if err := faultinject.Set(faultinject.SATSolvePanic, "1*panic"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	res, err := Repair(h, ps, opts)
	checkChaosInvariants(t, h, res, err, "all-tcs solve panic")
	if res.Failed != 1 || len(res.Stats) != 1 {
		t.Fatalf("failed=%d over %d problems, want the one all-tcs problem failed", res.Failed, len(res.Stats))
	}
	st := res.Stats[0]
	if st.Attempts != 1 || st.Fallback != "" {
		t.Errorf("attempts=%d fallback=%q, want one attempt and no fallback", st.Attempts, st.Fallback)
	}
	if !strings.Contains(st.Err, "panic during solve") {
		t.Errorf("err = %q, want it to name the solver panic", st.Err)
	}
}

// TestChaosAllTCsBudgetStarveOneAttempt: a starved all-tcs solve is
// reported after one attempt at the caller's budget — no escalation, no
// greedy fallback — and leaves the state as it found it.
func TestChaosAllTCsBudgetStarveOneAttempt(t *testing.T) {
	h, ps, opts := allTCsChaosInstance()
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	res, err := Repair(h, ps, opts)
	checkChaosInvariants(t, h, res, err, "all-tcs budget starve")
	if len(res.Stats) != 1 {
		t.Fatalf("%d problems, want the one all-tcs problem", len(res.Stats))
	}
	st := res.Stats[0]
	if st.Outcome != OutcomeFailed || st.Attempts != 1 || st.Fallback != "" {
		t.Errorf("outcome=%s attempts=%d fallback=%q, want failed after one attempt without fallback",
			st.Outcome, st.Attempts, st.Fallback)
	}
	if res.Usable() || !res.State.Equal(res.Orig) {
		t.Errorf("usable=%v, state equals orig=%v; want an unusable result on the untouched state",
			res.Usable(), res.State.Equal(res.Orig))
	}
}
