package cpr

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/generate"
	"repro/internal/policy"
)

// reparse re-binds policies to another system's network model (policy
// values hold subnet pointers, so verifying a reloaded network needs a
// re-parse, not the original objects).
func reparse(t *testing.T, sys *System, ps []Policy) []Policy {
	t.Helper()
	out, err := sys.ParsePolicies(policy.Format(ps))
	if err != nil {
		t.Fatalf("repaired policies do not re-parse on the patched network: %v", err)
	}
	return out
}

// TestChaosDegradedRepairPatchesNetwork is the end-to-end acceptance
// check for graceful degradation: with the SAT solver permanently
// starved, the repair must fall back to the greedy baseline, translate
// the realized constructs into configuration patches, and the PATCHED
// network — reloaded from text, not the in-memory state — must satisfy
// every policy the result claims repaired.
func TestChaosDegradedRepairPatchesNetwork(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies("reachable S T 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Set(faultinject.SATBudgetStarve, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Fatal("repair claims solved under a permanently starved solver")
	}
	if !rep.Usable() || rep.Result.Degraded != 1 {
		t.Fatalf("usable=%v degraded=%d, want a usable degraded repair", rep.Usable(), rep.Result.Degraded)
	}
	if rep.Plan == nil || len(rep.PatchedConfigs) == 0 {
		t.Fatal("degraded repair produced no patch")
	}

	// Disarm before reloading: the patched network must verify on its own
	// merits, not under injection.
	faultinject.Reset()
	patched, err := Load(rep.PatchedConfigs)
	if err != nil {
		t.Fatalf("patched configs do not parse: %v", err)
	}
	violated, err := patched.VerifyCtx(context.Background(), reparse(t, patched, rep.Result.Repaired))
	if err != nil {
		t.Fatal(err)
	}
	if len(violated) != 0 {
		t.Fatalf("patched network still violates %d repaired policies (first: %s)", len(violated), violated[0])
	}
}

// TestChaosTransientFaultStillSolves checks that a single injected
// solver panic is absorbed by the retry layer and the final patched
// network satisfies the full specification.
func TestChaosTransientFaultStillSolves(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Set(faultinject.SATSolvePanic, "1*panic"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("one transient panic was not absorbed: degraded=%d failed=%d",
			rep.Result.Degraded, rep.Result.Failed)
	}
	if faultinject.FiredCount(faultinject.SATSolvePanic) == 0 {
		t.Fatal("the panic failpoint never fired — the test proved nothing")
	}

	faultinject.Reset()
	patched, err := Load(rep.PatchedConfigs)
	if err != nil {
		t.Fatal(err)
	}
	violated, err := patched.VerifyCtx(context.Background(), reparse(t, patched, policies))
	if err != nil {
		t.Fatal(err)
	}
	if len(violated) != 0 {
		t.Fatalf("patched network violates %v", violated)
	}
}

// TestChaosReplayFallback arms the failpoint on cpr.RepairCtx's final
// check of a compressed repair (re-parse the patched text, re-verify the
// repaired policies on it) and pins the branch it forces: the whole
// repair is redone uncompressed, comes back solved, and patches the
// configurations exactly as a compress-off repair does.
func TestChaosReplayFallback(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc32", Routers: 32, Subnets: 12,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, ps := loadInstance(t, inst)
	if n := sys.Network.NumDevices(); n < 24 {
		t.Fatalf("%d devices: too few for compression to engage by default", n)
	}
	compressed, err := sys.Repair(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !compressed.Solved() || compressed.Result.Compressed == 0 {
		t.Fatalf("solved=%v compressed=%d: the workload must repair compressed without the failpoint",
			compressed.Solved(), compressed.Result.Compressed)
	}
	off := DefaultOptions()
	off.Compress = core.CompressOff
	want, err := sys.Repair(ps, off)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Set(faultinject.CPRReplayError, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := faultinject.FiredCount(faultinject.CPRReplayError)
	rep, err := sys.Repair(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if faultinject.FiredCount(faultinject.CPRReplayError) == before {
		t.Fatal("the replay failpoint never fired — the test proved nothing")
	}
	if !rep.Solved() || rep.Result.Compressed != 0 {
		t.Fatalf("solved=%v compressed=%d, want a solved uncompressed re-run", rep.Solved(), rep.Result.Compressed)
	}
	if !reflect.DeepEqual(rep.PatchedConfigs, want.PatchedConfigs) {
		t.Fatal("the fallback's patched configurations differ from a compress-off repair's")
	}
}
