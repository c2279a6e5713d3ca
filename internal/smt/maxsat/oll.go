package maxsat

import (
	"sort"

	"repro/internal/smt/card"
	"repro/internal/smt/sat"
)

// ollItem is one assumption of the descent: an original soft literal,
// or a totalizer bound output ¬AtLeast(bound+1).
type ollItem struct {
	lit    sat.Lit
	weight int             // residual weight still unpaid
	tot    *card.Totalizer // nil for original softs
	bound  int             // totalizer items: enforced "count ≤ bound"
	unit   int             // totalizer items: full per-term weight
	active bool
}

// Scratch is the storage an OLL descent works in: the block its soft
// items are carved from, the item pointers, the assumption list and the
// literal index. A caller that solves several instances in turn (one
// repair worker, its sub-problems) passes the same Scratch to each, and
// each solve reuses what the last one left instead of allocating its
// own; the literal index is cleared, not remade. A Scratch grows only for
// an instance with more softs than its block holds, and then with an
// eighth to spare, so instances a few percent apart share one. Results
// and solver state are the same with a new Scratch, a reused one, or
// none. It is not safe for concurrent use.
type Scratch struct {
	block []ollItem
	items []*ollItem
	asm   []sat.Lit
	byLit map[sat.Lit]*ollItem
}

// grow replaces the scratch's soft items, item pointers and literal
// index with room for c soft items.
func (sc *Scratch) grow(c int) {
	sc.block = make([]ollItem, 0, c)
	sc.items = make([]*ollItem, 0, c)
	sc.byLit = make(map[sat.Lit]*ollItem, c)
}

// oll is the core-guided OLL descent (Andres et al. 2012, as engineered
// in RC2/MSU3 solvers): assume every soft, extract an UNSAT core, pay
// the core's minimum weight into the lower bound, and relax the core
// through an incremental totalizer whose "count ≤ b" output becomes a
// new assumption — extended in place, one layer at a time, as later
// cores push the bound up. The loop ends at the first Sat verdict with
// nothing pending, whose model costs exactly the accumulated lower
// bound (see DESIGN.md for the invariant argument).
//
// Compared to linearDescent, no totalizer is ever built over the full
// soft set — only over cores, which CPR's repair instances keep small —
// and every SAT call reuses the one live solver, its learned clauses,
// and its phase state.
//
// The weighted path (weights != nil) adds stratification — softs enter
// the descent in decreasing-weight strata, so early cores are found
// among the expensive softs first — and weight-aware clause hardening:
// once a model gives an upper bound UB, any soft whose residual weight
// exceeds UB−LB cannot be violated in an optimum and is promoted to a
// hard unit clause. Core expansion is WCE-style delayed: cores found
// under one assumption set are stashed and their totalizers built only
// when the current assumptions are exhausted, so one solver pass can
// collect several disjoint cores before any encoding work happens.
//
// Everything is deterministic: items live in a slice in creation order,
// assumption lists are rebuilt in that order, cores come from the
// deterministic solver, and totalizer materialization is an in-order
// tree walk.
func oll(s *sat.Solver, softs []sat.Lit, weights []int, sc *Scratch) Result {
	slack := 0
	if sc == nil {
		sc = new(Scratch) // this solve's alone: sized exactly
	} else {
		slack = len(softs) / 8 // room for the next, slightly larger, instance
	}
	if cap(sc.block) < len(softs) || sc.byLit == nil {
		sc.grow(len(softs) + slack)
	} else {
		clear(sc.byLit)
	}
	block, items, byLit := sc.block[:0], sc.items[:0], sc.byLit

	// Aggregate duplicate soft literals (weighted callers may repeat a
	// literal); summing their weights preserves the objective and keeps
	// the assumption set duplicate-free. The softs' items are carved from
	// one block, which never grows, so the pointers stay valid; the
	// totalizer items the descent adds are allocated one by one.
	for i, l := range softs {
		w := 1
		if weights != nil {
			w = weights[i]
		}
		if w == 0 {
			continue
		}
		if it := byLit[l]; it != nil {
			it.weight += w
			continue
		}
		block = append(block, ollItem{lit: l, weight: w})
		it := &block[len(block)-1]
		items = append(items, it)
		byLit[l] = it
	}
	// The assumption list is sized to the items: a solver keeps the last
	// one it was given.
	asm := sc.asm[:0]
	if cap(asm) < len(items) {
		asm = make([]sat.Lit, 0, len(items)+slack)
	}
	// The slices may have grown; the next solve starts from what they are.
	defer func() { sc.items, sc.asm = items[:0], asm[:0] }()

	// Stratification thresholds: distinct weights, descending. The
	// common unit-weight case is a single stratum and skips the whole
	// mechanism.
	seen := map[int]bool{}
	var strata []int
	for _, it := range items {
		if !seen[it.weight] {
			seen[it.weight] = true
			strata = append(strata, it.weight)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(strata)))
	nextStratum := 0
	activate := func() {
		floor := strata[nextStratum]
		for _, it := range items {
			if it.tot == nil && !it.active && it.weight >= floor {
				it.active = true
			}
		}
		nextStratum++
	}
	if len(strata) == 0 {
		// Every soft had weight zero; any model of the hards is optimal.
		st := s.Solve()
		if st != sat.Sat {
			return Result{Status: st}
		}
		return Result{Status: sat.Sat, Cost: 0}
	}
	activate()

	lb := 0
	bestUB := -1
	// pending holds cores whose totalizer expansion is delayed
	// (WCE-style): the violation indicators and the weight paid.
	type pendingCore struct {
		inds []sat.Lit
		w    int
	}
	var pending []pendingCore

	// relax turns one stashed core into an incremental totalizer with
	// an initial "count ≤ 1" assumption.
	relax := func(pc pendingCore) {
		tot := card.New(s, pc.inds)
		tot.Extend(2)
		it := &ollItem{lit: tot.AtLeast(2).Not(), weight: pc.w, tot: tot, bound: 1, unit: pc.w, active: true}
		items = append(items, it)
		byLit[it.lit] = it
		// Bias the search toward "count stays at the bound": relaxed
		// cores rarely grow past it in the optimum.
		s.SetPhase(it.lit.Var(), !it.lit.Neg())
	}

	// cost evaluates the model's violated weight over the original
	// (pre-aggregation) soft multiset.
	cost := func() int {
		c := 0
		for i, l := range softs {
			if !s.ValueLit(l) {
				if weights != nil {
					c += weights[i]
				} else {
					c++
				}
			}
		}
		return c
	}

	for {
		asm = asm[:0]
		for _, it := range items {
			if it.active {
				asm = append(asm, it.lit)
			}
		}
		switch st := s.Solve(asm...); st {
		case sat.Sat:
			if ub := cost(); bestUB < 0 || ub < bestUB {
				bestUB = ub
			}
			// Keep the descent warm: the next model usually differs from
			// this one in a handful of assignments.
			s.SeedPhasesFromModel()
			if len(pending) > 0 {
				// Delayed expansion: encode every core this pass found,
				// then continue the descent under the new bounds.
				for _, pc := range pending {
					relax(pc)
				}
				pending = pending[:0]
				continue
			}
			if nextStratum < len(strata) {
				// Weight-aware hardening before widening the stratum: a
				// soft (or totalizer bound) whose residual weight exceeds
				// the optimality gap can never be violated in an optimum.
				gap := bestUB - lb
				for _, it := range items {
					if it.weight > gap && (it.active || it.tot == nil) {
						if it.active {
							it.active = false
						}
						// Future-stratum softs are hardened before they
						// ever become assumptions.
						it.weight = -1 // never activated again
						s.AddClause(it.lit)
						s.HardenedSofts++
					}
				}
				activate()
				continue
			}
			return Result{Status: sat.Sat, Cost: cost()}
		case sat.Unsat:
			core := s.UnsatCore()
			if len(core) == 0 {
				return Result{Status: sat.Unsat}
			}
			if len(core) <= maxMinimizeCore && s.NumVars() <= minimizeVarLimit {
				core = s.MinimizeCore(core, minimizeProbeBudget)
				if len(core) == 0 {
					return Result{Status: sat.Unsat}
				}
			}
			wmin := 0
			coreItems := make([]*ollItem, 0, len(core))
			for _, l := range core {
				it := byLit[l]
				if it == nil || !it.active {
					// A core literal that is not an active assumption can
					// only mean solver-state corruption; fail loudly
					// rather than mis-count the optimum.
					panic("maxsat: unsat core literal is not an active assumption")
				}
				coreItems = append(coreItems, it)
				if wmin == 0 || it.weight < wmin {
					wmin = it.weight
				}
			}
			lb += wmin
			inds := make([]sat.Lit, len(coreItems))
			for i, it := range coreItems {
				inds[i] = it.lit.Not()
				it.weight -= wmin
				if it.weight > 0 {
					continue // stays active at reduced weight
				}
				it.active = false
				if it.tot != nil && it.bound+1 < it.tot.Len() {
					// The bound's term is fully paid: re-arm the same
					// totalizer one layer up, at the full per-term weight.
					it.tot.Extend(it.bound + 2)
					next := &ollItem{lit: it.tot.AtLeast(it.bound + 2).Not(), weight: it.unit,
						tot: it.tot, bound: it.bound + 1, unit: it.unit, active: true}
					items = append(items, next)
					byLit[next.lit] = next
					s.SetPhase(next.lit.Var(), !next.lit.Neg())
				}
			}
			if len(inds) == 1 {
				// Singleton core: the indicator is entailed by the hard
				// clauses — record it as a unit instead of relaxing.
				s.AddClause(inds[0])
				continue
			}
			pending = append(pending, pendingCore{inds: inds, w: wmin})
		default:
			return Result{Status: st}
		}
	}
}

// maxMinimizeCore bounds the core size worth probe-minimizing: big
// cores are almost always already structural, and probing them costs
// one assumption solve per literal.
const maxMinimizeCore = 12

// minimizeVarLimit bounds the instance size worth probe-minimizing.
// Each probe restarts search from level zero, so its cost is dominated
// by re-propagating the whole clause database — on repair-scale
// instances (tens of thousands of variables) that overhead dwarfs what
// the smaller core saves, while on small instances probing is nearly
// free and regularly shrinks cores to singletons.
const minimizeVarLimit = 4096

// minimizeProbeBudget is the per-probe conflict budget during core
// minimization.
const minimizeProbeBudget = 500
