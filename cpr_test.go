package cpr

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harc"
	"repro/internal/policy"
)

func loadFigure2a(t *testing.T) *System {
	t.Helper()
	sys, err := Load(config.Figure2aConfigs())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

const figure2aSpec = `# §2.2 example policies
always-blocked S U
always-waypoint S T
reachable S T 2
primary-path R T A,B,C
`

// TestLoadRejectsDuplicateHostname pins the fix for the silent
// last-writer-wins overwrite when two configs declare the same hostname:
// Load must fail loudly, naming the hostname and both config labels.
func TestLoadRejectsDuplicateHostname(t *testing.T) {
	texts := config.Figure2aConfigs()
	var first string
	for name := range texts {
		first = name
		break
	}
	texts["zz-copy"] = texts[first]
	_, err := Load(texts)
	if err == nil {
		t.Fatal("Load accepted two configs with the same hostname")
	}
	if !strings.Contains(err.Error(), "duplicate hostname") || !strings.Contains(err.Error(), "zz-copy") {
		t.Errorf("err = %v, want a duplicate-hostname error naming the configs", err)
	}
}

func TestVerifyCtxAndRepairCtxCancelled(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.VerifyCtx(ctx, policies); !errors.Is(err, context.Canceled) {
		t.Errorf("VerifyCtx err = %v, want context.Canceled", err)
	}
	if _, err := sys.RepairCtx(ctx, policies, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("RepairCtx err = %v, want context.Canceled", err)
	}
	// An un-cancelled context behaves like the plain methods.
	violated, err := sys.VerifyCtx(context.Background(), policies)
	if err != nil || len(violated) != 1 {
		t.Errorf("VerifyCtx = %v, %v; want 1 violated", violated, err)
	}
}

func TestOptionFlagsResolve(t *testing.T) {
	opts, err := OptionFlags{}.Resolve()
	if err != nil || opts != DefaultOptions() {
		t.Errorf("zero flags = %+v, %v; want defaults", opts, err)
	}
	opts, err = OptionFlags{Granularity: "all-tcs", Objective: "min-devices", Parallelism: 4, ConflictBudget: 100}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Granularity != AllTCs || opts.Objective != MinDevices || opts.Parallelism != 4 || opts.ConflictBudget != 100 {
		t.Errorf("resolved = %+v", opts)
	}
	for _, bad := range []OptionFlags{
		{Granularity: "x"}, {Objective: "x"}, {Parallelism: -1}, {ConflictBudget: -1},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("flags %+v resolved without error", bad)
		}
	}
	// Spellings that selected a second path through the engine no longer
	// exist: a request body carrying one is an unknown field to the strict
	// decoder cprd uses, never a silently ignored one.
	for _, body := range []string{
		`{"isolation":"off"}`, `{"algorithm":"linear"}`, `{"warm_start":true}`, `{"solve_cache":"off"}`,
		`{"no_fallback":true}`, `{"retry_attempts":1}`, `{"dst_timeout_ms":5}`, `{"compress_redundancy":3}`,
		`{"compress":"off"}`,
	} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var f OptionFlags
		if err := dec.Decode(&f); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("options %s: err = %v, want an unknown-field error", body, err)
		}
	}
}

func TestLoadAndVerify(t *testing.T) {
	sys := loadFigure2a(t)
	if sys.Network.NumDevices() != 3 {
		t.Fatalf("devices = %d", sys.Network.NumDevices())
	}
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	violated := sys.Verify(policies)
	if len(violated) != 1 || violated[0].Kind != KReachable {
		t.Fatalf("violated = %v, want just EP3", violated)
	}
}

func TestPublicRepairEndToEnd(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("unsolved: %+v", rep.Result.Stats)
	}
	if rep.Plan.NumLines() == 0 {
		t.Fatal("expected configuration changes")
	}
	// Patched configs re-load and satisfy the spec.
	sys2, err := Load(rep.PatchedConfigs)
	if err != nil {
		t.Fatalf("patched configs do not load: %v", err)
	}
	policies2, err := sys2.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v := sys2.Verify(policies2); len(v) != 0 {
		t.Fatalf("patched network violates: %v\nplan:\n%s", v, rep.Plan)
	}
	// The original system is untouched.
	if v := sys.Verify(policies); len(v) != 1 {
		t.Error("Repair must not mutate the receiver")
	}
}

func TestExplainPublicAPI(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	lines := sys.Explain(policies)
	if len(lines) != 1 {
		t.Fatalf("expected one witness (EP3), got %v", lines)
	}
	if !strings.Contains(lines[0], "link") {
		t.Errorf("EP3 witness should name a failing link: %q", lines[0])
	}
}

func TestInferPolicies(t *testing.T) {
	sys := loadFigure2a(t)
	inferred := sys.InferPolicies()
	if len(inferred) != 12 {
		t.Fatalf("inferred = %d, want one per traffic class", len(inferred))
	}
	if v := sys.Verify(inferred); len(v) != 0 {
		t.Errorf("inferred policies must hold: %v", v)
	}
}

func TestRepairUnsatisfiableSpecReported(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies("always-blocked S T\nreachable S T 1\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Error("contradictory spec should be unsolvable")
	}
	if rep.Plan != nil {
		t.Error("no plan should be produced for unsolvable specs")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(map[string]string{"x": "bogus config\n"}); err == nil {
		t.Error("bad config should fail to load")
	}
	if _, err := Load(map[string]string{
		"a": "hostname dup\n",
		"b": "hostname dup\n",
	}); err == nil {
		t.Error("duplicate hostnames should fail")
	}
}

func TestPlanRendering(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies("reachable S T 2\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatal("unsolved")
	}
	text := rep.Plan.String()
	if !strings.Contains(text, "ip route") {
		t.Errorf("expected a static route in the plan:\n%s", text)
	}
}

// TestStaticDistanceIsState: a static route's administrative distance is
// state. On Figure 2a's repaired configs the static `ip route … 10.0.2.3 3`
// over an interface of cost 1 weighs 3 wherever a verdict reads it, so
// the HARC's own rows and a StateOf clone of them give every policy the
// same verdict, and the patched configs read exactly as the verified
// repaired state (verifyPatchedConfigs' fast path).
func TestStaticDistanceIsState(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil || !rep.Solved() {
		t.Fatalf("repair: %v", err)
	}
	if !strings.Contains(rep.Plan.String(), "10.0.2.3 3") {
		t.Fatalf("the repair no longer adds the distance-3 static route:\n%s", rep.Plan)
	}
	fixed, err := Load(rep.PatchedConfigs)
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := fixed.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	fromState := policy.NewStateChecker(fixed.HARC, harc.StateOf(fixed.HARC))
	for _, p := range rebound {
		if own, state := policy.Check(fixed.HARC, p), fromState.Check(p); !own || !state {
			t.Errorf("%s on the repaired configs: own rows %v, StateOf %v; want both true", p, own, state)
		}
	}
	var tcs []TrafficClass
	for _, p := range rebound {
		tcs = append(tcs, p.TC)
	}
	lh := harc.BuildLite(fixed.Network, tcs)
	if !patchedStateMatches(harc.StateOf(lh), rep.Result.State, lh.Dsts, tcs) {
		t.Error("the patched configs do not read as the verified repaired state")
	}
	if err := verifyPatchedConfigs(context.Background(), rep.PatchedConfigs, policies, rep.Result.State); err != nil {
		t.Errorf("verifyPatchedConfigs rejects the repaired configs: %v", err)
	}
	// Without a verified state to match, every policy is checked on the
	// re-parsed network, the original policies finding its rows by name.
	if err := verifyPatchedConfigs(context.Background(), rep.PatchedConfigs, policies, nil); err != nil {
		t.Errorf("the full check rejects the repaired configs: %v", err)
	}
	err = verifyPatchedConfigs(context.Background(), config.Figure2aConfigs(), policies, nil)
	if !errors.Is(err, ErrUnfaithfulPatch) || !strings.Contains(err.Error(), "reachable S T 2") {
		t.Errorf("the full check on the unrepaired configs: err %v, want an ErrUnfaithfulPatch naming reachable S T 2", err)
	}
}

// TestRerepairKeepsStaticDistance: repairing already-repaired configs
// must not touch a static route nothing asked to change. Figure 2a's
// repair adds a distance-3 static route over a cost-1 interface; a second
// repair that only adds `always-blocked R S` used to rewrite that route's
// distance to its interface's cost, breaking the primary path the first
// repair had secured.
func TestRerepairKeepsStaticDistance(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Repair(policies, DefaultOptions())
	if err != nil || !first.Solved() {
		t.Fatalf("repair: %v", err)
	}
	fixed, err := Load(first.PatchedConfigs)
	if err != nil {
		t.Fatal(err)
	}
	spec := figure2aSpec + "always-blocked R S\n"
	policies, err = fixed.ParsePolicies(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fixed.Repair(policies, DefaultOptions())
	if err != nil || !second.Solved() {
		t.Fatalf("second repair: %v", err)
	}
	if strings.Contains(second.Plan.String(), "ip route") {
		t.Errorf("the second repair edits a static route:\n%s", second.Plan)
	}
	again, err := Load(second.PatchedConfigs)
	if err != nil {
		t.Fatal(err)
	}
	policies, err = again.ParsePolicies(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(policies) != 5 {
		t.Fatalf("%d policies, want 5", len(policies))
	}
	if bad := again.Verify(policies); len(bad) != 0 {
		t.Errorf("the re-patched configs violate %v\nplan:\n%s", bad, second.Plan)
	}
}
