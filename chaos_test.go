package cpr

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

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

// TestChaosStarvedRepairFails: with the SAT solver permanently starved,
// the one destination spends its attempts and fails, and the output
// carries no patch to apply.
func TestChaosStarvedRepairFails(t *testing.T) {
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
	if rep.Solved() || rep.Usable() || rep.Result.Failed != 1 {
		t.Fatalf("solved=%v usable=%v failed=%d, want the one destination failed",
			rep.Solved(), rep.Usable(), rep.Result.Failed)
	}
	if rep.Plan != nil || len(rep.PatchedConfigs) != 0 {
		t.Fatal("a failed repair produced a patch")
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
		t.Fatalf("one transient panic was not absorbed: failed=%d", rep.Result.Failed)
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

// TestChaosReplayFailureIsLabeled arms the failpoint on cpr.RepairCtx's
// read-back of a compressed repair (re-parse the patched text, re-verify
// the repaired policies on it) and pins the branch it forces: a labeled
// error wrapping ErrUnfaithfulPatch that names the first repaired policy,
// with no output and no second, uncompressed repair. Through a session
// the error is not memoized: once the failpoint is cleared, the same
// request solves compressed and patches the text as a plain repair does.
func TestChaosReplayFailureIsLabeled(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc32", Routers: 32, Subnets: 12,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, texts, ps := loadInstance(t, inst)
	if n := sys.Network.NumDevices(); n < 24 {
		t.Fatalf("%d devices: too few for compression to engage", n)
	}
	want, err := sys.Repair(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Solved() || want.Result.Compressed == 0 {
		t.Fatalf("solved=%v compressed=%d: the workload must repair compressed without the failpoint",
			want.Solved(), want.Result.Compressed)
	}
	sess, err := NewSession(texts)
	if err != nil {
		t.Fatal(err)
	}
	sps := reparse(t, sess.System(), ps)

	if err := faultinject.Set(faultinject.CPRReplayError, "error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	rep, err := sess.Repair(sps, DefaultOptions())
	if faultinject.FiredCount(faultinject.CPRReplayError) != 1 {
		t.Fatalf("the replay failpoint fired %d times, want once", faultinject.FiredCount(faultinject.CPRReplayError))
	}
	if !errors.Is(err, ErrUnfaithfulPatch) || rep != nil {
		t.Fatalf("output %v, err %v; want no output and an ErrUnfaithfulPatch", rep, err)
	}
	if first := want.Result.Repaired[0].String(); !strings.Contains(err.Error(), first) {
		t.Errorf("err %q does not name the first repaired policy %q", err, first)
	}
	// One pass over the sub-problems: nothing was solved a second time.
	if st := sess.CacheStats(); st.Hits+st.Misses != uint64(len(want.Result.Stats)) {
		t.Errorf("solve-cache lookups %d, want %d: a second repair ran", st.Hits+st.Misses, len(want.Result.Stats))
	}

	faultinject.Reset()
	again, err := sess.Repair(sps, DefaultOptions())
	if err != nil {
		t.Fatalf("the failure was memoized: %v", err)
	}
	if !again.Solved() || again.Result.Compressed == 0 {
		t.Fatalf("solved=%v compressed=%d, want a solved compressed repair", again.Solved(), again.Result.Compressed)
	}
	if !reflect.DeepEqual(again.PatchedConfigs, want.PatchedConfigs) {
		t.Fatal("the session's patched configurations differ from a plain repair's")
	}
}
