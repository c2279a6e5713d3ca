package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
)

// accept is the one acceptance gate for a sub-problem's answer st, solved,
// compressed or replayed: it stages st and marks the problem solved iff
// every policy holds on st by the graph checker (on one goroutine, as it
// runs in a worker), never by the word of the formula or abstraction that
// made st. Its time goes to ReverifyNs; a rejection names a violation.
func accept(h *harc.HARC, pr *problem, st *harc.State, changes int) error {
	t0 := time.Now()
	bad := VerifyRepair(h, st, pr.policies)
	pr.stat.ReverifyNs += time.Since(t0).Nanoseconds()
	if len(bad) > 0 {
		return fmt.Errorf("core: problem %s: answer violates %d of its policies (first: %s)", pr.label, len(bad), bad[0])
	}
	pr.realized = st
	pr.stat.Violations = changes
	pr.stat.Status = sat.Sat
	pr.stat.Outcome = OutcomeSolved
	return nil
}

// VerifyRepair checks that every policy holds on the repaired state.
func VerifyRepair(h *harc.HARC, st *harc.State, policies []policy.Policy) []policy.Policy {
	return VerifyRepairIncremental(h, st, policies, nil, 1)
}

// VerifyRepairIncremental is VerifyRepair restricted to the policies a
// repair could have affected: those whose traffic class (either class,
// for isolation policies) is in touched. A nil touched set checks every
// policy. Policies outside the set were verified satisfied before the
// repair and their class state is untouched (see Result.Touched), so
// skipping them loses nothing. The rest go through the checker's sweep
// (policy.StateChecker.Violations) on at most workers goroutines, and the
// returned violations are in input order regardless of parallelism.
func VerifyRepairIncremental(h *harc.HARC, st *harc.State, policies []policy.Policy, touched map[string]bool, workers int) []policy.Policy {
	var keep func(policy.Policy) bool
	if touched != nil {
		keep = func(p policy.Policy) bool {
			return touched[p.TC.Key()] || (p.Kind == policy.Isolated && touched[p.TC2.Key()])
		}
	}
	violated, _ := policy.NewStateChecker(h, st).Violations(context.Background(), policies, keep, workers)
	return violated
}
