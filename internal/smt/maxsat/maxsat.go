// Package maxsat solves partial MaxSAT: given hard clauses (already in a
// sat.Solver) and a set of soft literals, find a model of the hard
// clauses that minimizes the violated softs' weight.
//
// Two exact algorithms are provided: stratified OLL over incremental
// totalizers (the engine every repair runs — see oll.go) and linear
// SAT→UNSAT descent with a totalizer cardinality encoding, the
// independent reference the oracles and the benchmark's golden
// cross-check pin OLL against.
package maxsat

import (
	"context"
	"fmt"

	"repro/internal/smt/card"
	"repro/internal/smt/sat"
)

// Algorithm selects the optimization strategy.
type Algorithm int

// Available algorithms.
const (
	// LinearDescent finds an initial model, then repeatedly tightens a
	// totalizer bound on the number of violated softs until UNSAT.
	LinearDescent Algorithm = iota
	// OLL is the core-guided descent of Andres et al.: each unsat core
	// is relaxed through an incremental totalizer whose bound output
	// becomes a new assumption, with weight stratification and clause
	// hardening on the weighted path. Exact, like the linear descent, but
	// no encoding is ever built over the full soft set.
	OLL
)

func (a Algorithm) String() string {
	if a == OLL {
		return "oll"
	}
	return "linear"
}

// Result reports the outcome of a MaxSAT solve.
type Result struct {
	Status sat.Status
	// Cost is the number of violated soft literals in the optimum (valid
	// when Status == Sat). The optimal model is left in the solver.
	Cost int
}

// Solve minimizes the number of violated softs. The solver must contain
// the hard clauses; on return with Status == Sat its model is an optimal
// assignment. Unknown Algorithm values panic.
func Solve(s *sat.Solver, softs []sat.Lit, algo Algorithm) Result {
	return solve(s, softs, algo, nil)
}

func solve(s *sat.Solver, softs []sat.Lit, algo Algorithm, sc *Scratch) Result {
	switch algo {
	case LinearDescent:
		return linearDescent(s, softs)
	case OLL:
		return oll(s, softs, nil, sc)
	}
	panic(fmt.Sprintf("maxsat: unknown algorithm %d", int(algo)))
}

// SolveWeighted minimizes the total weight of violated softs (weights
// must be non-negative; zero-weight softs are ignored). The OLL engine
// handles weights natively through stratification and residual-weight
// accounting; the linear reference realizes them by duplication — exact
// and simple for the small integer weights CPR uses. Either way Cost is
// the violated weight sum.
//
// OLL works in sc, which a caller solving several instances in turn
// passes to each (see Scratch); a nil sc allocates the descent's storage
// for this solve alone. The linear reference needs none.
func SolveWeighted(s *sat.Solver, softs []sat.Lit, weights []int, algo Algorithm, sc *Scratch) Result {
	if len(weights) != len(softs) {
		panic("maxsat: weights and softs length mismatch")
	}
	unit := true
	for _, w := range weights {
		if w < 0 {
			panic("maxsat: negative soft weight")
		}
		if w != 1 {
			unit = false
		}
	}
	if unit {
		// The common case — Table 2's softs are unit weight unless the
		// waypoint weight is raised — needs no duplication or
		// stratification at all; it rides the plain engine dispatch.
		return solve(s, softs, algo, sc)
	}
	if algo == OLL {
		return oll(s, softs, weights, sc)
	}
	expanded := make([]sat.Lit, 0, len(softs))
	for i, l := range softs {
		for w := 0; w < weights[i]; w++ {
			expanded = append(expanded, l)
		}
	}
	return Solve(s, expanded, algo)
}

// SolveWeightedCtx is SolveWeighted under a context: cancelling ctx
// interrupts the underlying SAT solver, and the optimization unwinds
// promptly with Status == Unknown. Callers distinguish cancellation from
// an exhausted conflict budget via ctx.Err().
func SolveWeightedCtx(ctx context.Context, s *sat.Solver, softs []sat.Lit, weights []int, algo Algorithm, sc *Scratch) Result {
	defer interruptOn(ctx, s)()
	return SolveWeighted(s, softs, weights, algo, sc)
}

// interruptOn interrupts s when ctx is cancelled, until the returned
// function is called. That function returns only once no interrupt can
// still land: if cancellation has already started the callback, it waits
// for it, so a caller that goes on to Reset the solver for another formula
// cannot have that formula's solve stopped by this one's context.
func interruptOn(ctx context.Context, s *sat.Solver) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		s.Interrupt()
		close(fired)
	})
	return func() {
		if !stop() {
			<-fired
		}
	}
}

// countViolated counts softs false under the solver's current model.
func countViolated(s *sat.Solver, softs []sat.Lit) int {
	n := 0
	for _, l := range softs {
		if !s.ValueLit(l) {
			n++
		}
	}
	return n
}

// Violated returns the indices of softs false under the current model.
func Violated(s *sat.Solver, softs []sat.Lit) []int {
	var out []int
	for i, l := range softs {
		if !s.ValueLit(l) {
			out = append(out, i)
		}
	}
	return out
}

func linearDescent(s *sat.Solver, softs []sat.Lit) Result {
	if st := warmStart(s, softs); st != sat.Sat {
		return Result{Status: st}
	}
	ub := countViolated(s, softs)
	if ub == 0 {
		return Result{Status: sat.Sat, Cost: 0}
	}
	// Violation indicators: v_i true when soft_i is violated.
	inputs := make([]sat.Lit, len(softs))
	for i, l := range softs {
		inputs[i] = l.Not()
	}
	// The totalizer is materialized only up to ub+1 counts: the search
	// only ever bounds below the initial model's violation count, and
	// truncation keeps the encoding O(n·ub) instead of O(n²) clauses. A
	// grossly bad initial model (huge ub on huge soft sets) would still
	// exhaust memory, so give up with Unknown instead — callers report
	// DNF.
	const maxTotalizerClauses = 40_000_000
	if int64(len(inputs))*int64(ub+1) > maxTotalizerClauses {
		return Result{Status: sat.Unknown}
	}
	tot := card.New(s, inputs)
	tot.Extend(ub + 1)
	// Warm start each bound-tightening iteration from the previous model:
	// the next optimum usually differs in a handful of assignments, so
	// seeding phases turns each re-solve into a short repair of the last
	// model instead of a cold search.
	s.SeedPhasesFromModel()
	// AtLeast(k) ("at least k violations") false ⇒ at most k-1.
	for ub > 0 {
		st := s.Solve(tot.AtLeast(ub).Not())
		if st == sat.Unsat {
			// Lock in the optimum bound for subsequent incremental use and
			// restore the optimal model by re-solving at the optimum. The
			// phases still hold the ub-violation model, steering the
			// re-solve straight back to it.
			if ub+1 <= tot.Bound() {
				s.AddClause(tot.AtLeast(ub + 1).Not())
			}
			st2 := s.Solve()
			if st2 != sat.Sat {
				return Result{Status: st2}
			}
			return Result{Status: sat.Sat, Cost: ub}
		}
		if st != sat.Sat {
			return Result{Status: st}
		}
		ub = countViolated(s, softs)
		s.SeedPhasesFromModel()
	}
	return Result{Status: sat.Sat, Cost: 0}
}

// warmStart finds an initial model that satisfies as many softs as a
// quick core-guided pass can manage: it assumes every soft and drops the
// softs of each unsat core until the rest are satisfiable. The resulting
// model violates at most #cores softs, keeping the descent's truncated
// totalizer small.
func warmStart(s *sat.Solver, softs []sat.Lit) sat.Status {
	active := make(map[sat.Lit]bool, len(softs))
	for _, l := range softs {
		active[l] = true
	}
	for {
		asm := make([]sat.Lit, 0, len(active))
		for _, l := range softs {
			if active[l] {
				asm = append(asm, l)
			}
		}
		st := s.Solve(asm...)
		switch st {
		case sat.Sat:
			return sat.Sat
		case sat.Unsat:
			core := s.UnsatCore()
			dropped := false
			for _, l := range core {
				if active[l] {
					delete(active, l)
					dropped = true
				}
			}
			if !dropped {
				if len(asm) == 0 {
					return sat.Unsat // hard clauses alone are unsat
				}
				// Defensive: a core with no active soft should not
				// happen; fall back to an unguided solve.
				return s.Solve()
			}
		default:
			// Budget exhausted during warm start: try one unguided solve.
			return s.Solve()
		}
	}
}
