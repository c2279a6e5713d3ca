package cpr

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

func loadFigure2aSession(t *testing.T) *Session {
	t.Helper()
	sess, err := NewSession(config.Figure2aConfigs())
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func mustPolicies(t *testing.T, sess *Session, spec string) []Policy {
	t.Helper()
	ps, err := sess.System().ParsePolicies(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// sameRepair asserts two repair outputs are byte-identical apart from
// timing and replay markers.
func sameRepair(t *testing.T, want, got *RepairOutput) {
	t.Helper()
	if want.Solved() != got.Solved() {
		t.Fatalf("solved: %v vs %v", want.Solved(), got.Solved())
	}
	if want.Plan.String() != got.Plan.String() {
		t.Fatalf("plans differ:\n--- fresh ---\n%s\n--- reused ---\n%s", want.Plan, got.Plan)
	}
	if !reflect.DeepEqual(want.PatchedConfigs, got.PatchedConfigs) {
		t.Fatal("patched configs differ")
	}
	if want.Result.Changes != got.Result.Changes {
		t.Fatalf("changes: %d vs %d", want.Result.Changes, got.Result.Changes)
	}
}

// TestSessionRepairReplay: a repeat repair on the same session must
// replay every sub-problem from the solve cache and produce
// byte-identical output.
func TestSessionRepairReplay(t *testing.T) {
	sess := loadFigure2aSession(t)
	ps := mustPolicies(t, sess, figure2aSpec)
	opts := DefaultOptions()

	first, err := sess.Repair(ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Solved() {
		t.Fatal("first repair not solved")
	}
	if first.Result.Reused != 0 {
		t.Fatalf("first repair reused %d problems, want 0", first.Result.Reused)
	}

	second, err := sess.Repair(ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRepair(t, first, second)
	if second.Result.Reused != len(second.Result.Stats) {
		t.Fatalf("second repair reused %d of %d problems, want all",
			second.Result.Reused, len(second.Result.Stats))
	}
	for _, st := range second.Result.Stats {
		if !st.Reused {
			t.Errorf("problem %s not marked reused", st.Label)
		}
	}

	// An identical repeat request is answered by the whole-output memo,
	// above the sub-problem solve cache (whose hits the delta tests
	// exercise); the solve cache still retains the entries.
	cs := sess.CacheStats()
	if cs.Entries == 0 {
		t.Fatalf("cache stats after replay: %+v, want retained entries", cs)
	}
	if cs.RetainedBytes <= 0 {
		t.Fatalf("retained bytes = %d, want > 0", cs.RetainedBytes)
	}
}

// TestSessionDeltaReplay: a delta that cannot reach any sub-problem of
// the policy set must still replay everything, and a revert must land
// back on the original content key.
func TestSessionDeltaReplay(t *testing.T) {
	sess := loadFigure2aSession(t)
	ps := mustPolicies(t, sess, figure2aSpec)
	opts := DefaultOptions()

	first, err := sess.Repair(ps, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Append an ACL on C denying U→R traffic: no policy traffic class
	// (S→U, S→T, R→T) is affected, so every sub-problem fingerprint is
	// unchanged and the forked cache replays both.
	texts := sess.Configs()
	cfgC := texts["C"] + "ip access-list extended CHURN\n deny ip 10.40.0.0 0.0.255.255 10.10.0.0 0.0.255.255\n permit ip any any\n!\n"
	next, err := sess.Delta(map[string]string{"C": cfgC})
	if err != nil {
		t.Fatal(err)
	}
	if next.Key() == sess.Key() {
		t.Fatal("delta did not change the content key")
	}
	nps := mustPolicies(t, next, figure2aSpec)
	out, err := next.Repair(nps, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The repair plan is unchanged (the churn ACL is outside every
	// policy's traffic class); the patched configs differ only by the
	// churn line itself and are checked against a cold solve below.
	if first.Plan.String() != out.Plan.String() {
		t.Fatalf("plan changed under unrelated delta:\n%s\nvs\n%s", first.Plan, out.Plan)
	}
	if out.Result.Reused != len(out.Result.Stats) {
		t.Fatalf("delta repair reused %d of %d problems, want all",
			out.Result.Reused, len(out.Result.Stats))
	}

	// The replayed result must equal a cold solve of the delta'd configs.
	cold, err := NewSession(next.Configs())
	if err != nil {
		t.Fatal(err)
	}
	coldOut, err := cold.Repair(mustPolicies(t, cold, figure2aSpec), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRepair(t, coldOut, out)

	// Reverting the change reproduces the original content key.
	back, err := next.Delta(map[string]string{"C": texts["C"]})
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != sess.Key() {
		t.Fatal("revert did not restore the original content key")
	}

	// DeltaKey predicts Delta's key without building.
	if got := sess.DeltaKey(map[string]string{"C": cfgC}); got != next.Key() {
		t.Fatalf("DeltaKey = %s, want %s", got, next.Key())
	}
}

// TestSessionDeltaInvalidation: a delta that changes a sub-problem's
// inputs must re-solve it (no stale replay), and the result must match a
// cold session byte for byte.
func TestSessionDeltaInvalidation(t *testing.T) {
	sess := loadFigure2aSession(t)
	ps := mustPolicies(t, sess, figure2aSpec)
	opts := DefaultOptions()
	if _, err := sess.Repair(ps, opts); err != nil {
		t.Fatal(err)
	}

	// Raise a link cost on B: path costs feed every destination's
	// encoding, so the affected sub-problems must re-solve.
	texts := sess.Configs()
	cfgB := texts["B"]
	next, err := sess.Delta(map[string]string{"B": cfgB + "interface Ethernet0/9\n ip address 10.99.99.1 255.255.255.0\n ip ospf cost 7\n!\n"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := next.Repair(mustPolicies(t, next, figure2aSpec), opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(next.Configs())
	if err != nil {
		t.Fatal(err)
	}
	coldOut, err := cold.Repair(mustPolicies(t, cold, figure2aSpec), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRepair(t, coldOut, out)

	// The session's System repairs without the cache or the output memo.
	bypass, err := next.System().Repair(mustPolicies(t, next, figure2aSpec), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bypass.Result.Reused != 0 {
		t.Fatalf("System().Repair reused %d problems, want 0", bypass.Result.Reused)
	}
	sameRepair(t, coldOut, bypass)
}
