package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/harc"
	"repro/internal/policy"
)

// Repair computes a minimal repair of the network's HARC so that every
// policy holds. It returns an error for malformed inputs; an
// unsatisfiable specification yields Solved == false with per-problem
// statuses.
func Repair(h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	return RepairCtx(context.Background(), h, policies, opts)
}

// RepairCtx is Repair under a context. Cancelling ctx interrupts every
// in-flight SAT solve (the CDCL search loop polls an interruption flag),
// and RepairCtx returns the partial Result — completed sub-problems keep
// their solved statuses, pending ones are marked failed — alongside
// ctx's error.
func RepairCtx(ctx context.Context, h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	start := time.Now()
	orig := harc.StateOf(h)
	out := orig.Clone()
	res := &Result{State: out, Solved: true, Orig: orig}

	problems, err := buildProblems(h, policies, opts)
	if err != nil {
		return nil, err
	}
	for _, pr := range problems {
		for _, tc := range pr.tcs {
			if h.TCRow(tc) < 0 {
				return nil, fmt.Errorf("core: traffic class %s is outside the HARC", tc)
			}
		}
	}
	// The tables are shared by every sub-problem encoder, including across
	// parallel workers.
	tb := newTables(h)

	runProblems(ctx, tb, orig, problems, opts)

	// Serial merge: copy each usable sub-problem's staged rows into the
	// shared repaired state.
	solvedDsts := map[string]bool{}
	solvedTCs := map[string]bool{}
	for _, pr := range problems {
		res.Sequential += pr.stat.Duration
		res.Conflicts += pr.stat.Conflicts
		res.Solver.Accumulate(pr.stat.Solver)
		if pr.stat.CompressFallback != "" {
			res.CompressFallbacks++
		}
		if pr.stat.Reused {
			res.Reused++
		}
		res.Stats = append(res.Stats, pr.stat)
		if pr.stat.Outcome == OutcomeFailed {
			res.Failed++
			res.Solved = false
			continue
		}
		res.Changes += pr.stat.Violations
		if pr.stat.Compressed {
			res.Compressed++
		}
		mergeRows(orig, out, pr.realized, pr)
		for _, d := range pr.dsts() {
			solvedDsts[d.Name] = true
		}
		for _, tc := range pr.tcs {
			solvedTCs[tc.Key()] = true
		}
		res.Repaired = append(res.Repaired, pr.policies...)
	}
	sort.Slice(res.Stats, func(i, j int) bool { return res.Stats[i].Label < res.Stats[j].Label })

	// Policies outside every sub-problem were already satisfied (their
	// destination group had no violations) and per-destination repairs
	// leave their state untouched, so they remain covered by the result.
	if len(res.Repaired) > 0 || len(problems) == 0 {
		inProblem := map[string]bool{}
		for _, pr := range problems {
			for _, p := range pr.policies {
				inProblem[p.String()] = true
			}
		}
		for _, p := range policies {
			if !inProblem[p.String()] {
				res.Repaired = append(res.Repaired, p)
			}
		}
	}

	// The rows no sub-problem solved follow the merged constructs: every
	// destination's when the aETG changed, and every class's whose
	// destination was solved or whose aETG changed, with the deviations its
	// configured ACLs make. Per-destination repairs freeze the aETG, so this
	// is usually O(solved destinations).
	allChanged := !out.All.Equal(orig.All)
	res.Touched = make(map[string]bool, len(solvedTCs))
	var unsolved []int
	for r, tc := range h.TCs {
		solved := solvedTCs[tc.Key()]
		if !solved && !allChanged && !solvedDsts[tc.Dst.Name] {
			continue
		}
		res.Touched[tc.Key()] = true
		if !solved {
			unsolved = append(unsolved, r)
		}
	}
	if allChanged {
		for r, dst := range h.Dsts {
			if !solvedDsts[dst.Name] {
				out.DeriveDst(r)
			}
		}
	}
	if len(unsolved) > 0 {
		h.DeriveConfiguredTCs(out, unsolved)
	}
	res.Duration = time.Since(start)
	return res, ctx.Err()
}

// mergeRows copies one usable sub-problem's rows from src, its staged
// repair (problem.realized), into the shared repaired state: its
// destinations' presence and construct rows, its traffic
// classes' rows, the aETG row when the problem solved it, any cost it
// changed and any waypoint it added. src descends from a Clone of an
// original state equal to orig on everything the problem reads, so whole
// rows carry exactly the problem's own writes.
func mergeRows(orig, out, src *harc.State, pr *problem) {
	for _, dst := range pr.dsts() {
		out.CopyDst(src, dst)
	}
	for _, tc := range pr.tcs {
		out.CopyTC(src, tc)
	}
	if !pr.freeze {
		out.CopyAll(src)
	}
	for ck, v := range src.Cost {
		if v != orig.Cost[ck] {
			out.Cost[ck] = v
		}
	}
	out.AddWaypoints(src)
}
