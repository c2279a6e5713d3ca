package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/generate"
)

// dcInstance returns the multi-destination data-center instance used by
// the isolation tests (the same shape as the ablation benchmark).
func dcInstance(t *testing.T) *generate.Instance {
	t.Helper()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "isolate", Routers: 8, Subnets: 14,
		BlockedFrac: 0.3, FullyBlockedDsts: 2, Violations: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRepairCtxCancelMidFanoutPartialResult cancels the parent context
// while exactly K of N destination sub-problems have solved and checks
// the partial-result contract: RepairCtx returns ctx's error alongside a
// Result whose first K problems (in deterministic dispatch order) are
// solved and whose remaining problems are failed-as-cancelled, with the
// partial state verifying against exactly the solved policies — and no
// goroutines leaked by the abandoned fan-out.
func TestRepairCtxCancelMidFanoutPartialResult(t *testing.T) {
	inst := dcInstance(t)
	h := inst.Harc()
	opts := DefaultOptions()
	// The cancellation point below counts encode entries, which requires
	// sequential ordered dispatch.
	opts.Parallelism = 1

	baseline, err := Repair(h, inst.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(baseline.Stats)
	if n < 3 {
		t.Fatalf("instance decomposed into %d problems, need >= 3", n)
	}
	k := n / 2

	g0 := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The encoder enters exactly once per sub-problem attempt
	// (Parallelism 1, ordered dispatch): cancel the parent at the start
	// of problem k+1's encode, after k problems completed.
	var calls atomic.Int64
	faultinject.SetCallback(faultinject.CoreEncodeSlow, func() error {
		if calls.Add(1) == int64(k)+1 {
			cancel()
		}
		return nil
	})
	defer faultinject.Reset()

	res, rerr := RepairCtx(ctx, h, inst.Policies, opts)
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rerr)
	}
	if res == nil {
		t.Fatal("cancelled repair returned no partial result")
	}

	solved := 0
	for i, st := range res.Stats {
		switch st.Outcome {
		case OutcomeSolved:
			solved++
			// Ordered dispatch: the solved prefix matches the baseline's
			// problem order exactly.
			if st.Label != baseline.Stats[i].Label {
				t.Errorf("solved problem %d = %q, want %q (deterministic order)", i, st.Label, baseline.Stats[i].Label)
			}
		case OutcomeFailed:
			if !strings.Contains(st.Err, "cancelled") {
				t.Errorf("failed problem %q err = %q, want a cancellation error", st.Label, st.Err)
			}
		default:
			t.Errorf("problem %q outcome = %s, want solved or failed", st.Label, st.Outcome)
		}
	}
	if solved != k {
		t.Errorf("solved = %d problems, want exactly %d", solved, k)
	}
	if res.Failed != n-k {
		t.Errorf("failed = %d, want %d", res.Failed, n-k)
	}
	if res.Solved {
		t.Error("partial result claims Solved")
	}
	if !res.Usable() {
		t.Error("partial result with solved problems claims not usable")
	}
	if bad := VerifyRepair(h, res.State, res.Repaired); len(bad) != 0 {
		t.Errorf("partial state violates %d of its repaired policies (first: %s)", len(bad), bad[0])
	}

	// No goroutine leaks: the worker pool and watchdogs must all have
	// wound down (poll briefly — runtime bookkeeping can lag).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= g0+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after cancelled fan-out, started with %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
