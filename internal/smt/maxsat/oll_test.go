package maxsat

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/smt/sat"
)

// exactlyOne adds hard clauses forcing exactly one of vars true.
func exactlyOne(s *sat.Solver, vars []sat.Var) {
	all := make([]sat.Lit, len(vars))
	for i, v := range vars {
		all[i] = sat.MkLit(v, false)
	}
	s.AddClause(all...)
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			s.AddClause(sat.MkLit(vars[i], true), sat.MkLit(vars[j], true))
		}
	}
}

// TestOLLTelemetry: a descent that must extract cores reports them
// through the solver's counters — the numbers `cpr -stats` and cprd's
// /statsz surface.
func TestOLLTelemetry(t *testing.T) {
	s, vars := mk(4)
	exactlyOne(s, vars)
	var softs []sat.Lit
	for _, v := range vars {
		softs = append(softs, sat.MkLit(v, false))
	}
	res := Solve(s, softs, OLL)
	if res.Status != sat.Sat || res.Cost != 3 {
		t.Fatalf("got %+v, want cost 3", res)
	}
	if s.AssumpSolves == 0 {
		t.Errorf("no assumption solves recorded")
	}
	if s.CoresExtracted == 0 {
		t.Errorf("no cores recorded")
	}
	if s.TotalizerVars == 0 {
		t.Errorf("no totalizer variables recorded (cores must have been relaxed)")
	}
}

// TestOLLWeightedStratificationHardens: with one soft far heavier than
// the optimality gap, the stratified descent promotes it to a hard
// clause instead of carrying it as an assumption.
func TestOLLWeightedStratificationHardens(t *testing.T) {
	s, vars := mk(3)
	// x0 conflicts with x1; x2 free. Weights: x0=100, x1=1, x2=1.
	s.AddClause(sat.MkLit(vars[0], true), sat.MkLit(vars[1], true))
	softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[1], false), sat.MkLit(vars[2], false)}
	res := SolveWeighted(s, softs, []int{100, 1, 1}, OLL, nil)
	if res.Status != sat.Sat || res.Cost != 1 {
		t.Fatalf("got %+v, want cost 1 (violate x1)", res)
	}
	if !s.ValueLit(softs[0]) {
		t.Errorf("optimum must keep the weight-100 soft")
	}
	if s.HardenedSofts == 0 {
		t.Errorf("stratification boundary should have hardened the heavy soft")
	}
}

// TestOLLWeightedResidualSplit: a core whose members have unequal
// weights pays only the minimum and keeps the heavier member active at
// its residual weight — the optimum still distinguishes them.
func TestOLLWeightedResidualSplit(t *testing.T) {
	s, vars := mk(2)
	// x0 and x1 conflict; weights 3 vs 5 — optimum violates x0 (cost 3).
	s.AddClause(sat.MkLit(vars[0], true), sat.MkLit(vars[1], true))
	softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[1], false)}
	res := SolveWeighted(s, softs, []int{3, 5}, OLL, nil)
	if res.Status != sat.Sat || res.Cost != 3 {
		t.Fatalf("got %+v, want cost 3", res)
	}
	if !s.ValueLit(softs[1]) {
		t.Errorf("optimum must satisfy the weight-5 soft")
	}
}

// TestOLLDuplicateSofts: repeated soft literals aggregate their weight
// instead of corrupting the assumption set.
func TestOLLDuplicateSofts(t *testing.T) {
	s, vars := mk(2)
	s.AddClause(sat.MkLit(vars[0], true), sat.MkLit(vars[1], true))
	// x0 listed twice at weight 2 each (total 4) vs x1 at 5: violate x0.
	softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[0], false), sat.MkLit(vars[1], false)}
	res := SolveWeighted(s, softs, []int{2, 2, 5}, OLL, nil)
	if res.Status != sat.Sat || res.Cost != 4 {
		t.Fatalf("got %+v, want cost 4", res)
	}
	if !s.ValueLit(sat.MkLit(vars[1], false)) {
		t.Errorf("optimum must satisfy the weight-5 soft")
	}
}

// TestOLLZeroWeights: zero-weight softs are free to violate; an
// all-zero instance degenerates to a plain solve at cost 0.
func TestOLLZeroWeights(t *testing.T) {
	s, vars := mk(2)
	s.AddClause(sat.MkLit(vars[0], true)) // force x0 false
	softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[1], false)}
	res := SolveWeighted(s, softs, []int{0, 1}, OLL, nil)
	if res.Status != sat.Sat || res.Cost != 0 {
		t.Fatalf("got %+v, want cost 0", res)
	}
	s2, vars2 := mk(1)
	s2.AddClause(sat.MkLit(vars2[0], true))
	res2 := SolveWeighted(s2, []sat.Lit{sat.MkLit(vars2[0], false)}, []int{0}, OLL, nil)
	if res2.Status != sat.Sat || res2.Cost != 0 {
		t.Fatalf("all-zero weights: got %+v, want cost 0", res2)
	}
}

// TestOLLCascadedCores: chained exactly-one groups force the totalizer
// bounds themselves into later cores, exercising the re-arm path
// (Extend to bound+1, new assumption at the creation-time unit weight).
func TestOLLCascadedCores(t *testing.T) {
	s, vars := mk(9)
	// Three disjoint exactly-one triples; all nine softs true wants
	// 3 violations per group... optimum = 2 per group = 6.
	for g := 0; g < 3; g++ {
		exactlyOne(s, vars[g*3:g*3+3])
	}
	var softs []sat.Lit
	for _, v := range vars {
		softs = append(softs, sat.MkLit(v, false))
	}
	res := Solve(s, softs, OLL)
	if res.Status != sat.Sat || res.Cost != 6 {
		t.Fatalf("got %+v, want cost 6", res)
	}
}

// TestOLLMatchesLinearOnRandomInstances: OLL and linear descent agree
// on the optimum cost across random hard/soft mixes (the engine-level
// version of the crosscheck oracle).
func TestOLLMatchesLinearOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		clauses := make([][]int, 2+rng.Intn(2*n))
		for i := range clauses {
			w := 1 + rng.Intn(3)
			cl := make([]int, w)
			for j := range cl {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			clauses[i] = cl
		}
		nsofts := 1 + rng.Intn(n)
		costs := map[Algorithm]int{}
		stats := map[Algorithm]sat.Status{}
		for _, algo := range []Algorithm{LinearDescent, OLL} {
			s, vars := mk(n)
			for _, cl := range clauses {
				lits := make([]sat.Lit, len(cl))
				for j, v := range cl {
					if v > 0 {
						lits[j] = sat.MkLit(vars[v-1], false)
					} else {
						lits[j] = sat.MkLit(vars[-v-1], true)
					}
				}
				s.AddClause(lits...)
			}
			softs := make([]sat.Lit, nsofts)
			for j := range softs {
				softs[j] = sat.MkLit(vars[j], rng.Intn(2) == 0)
			}
			// Same soft polarity for both engines: re-seed per algorithm.
			rng2 := rand.New(rand.NewSource(int64(trial)))
			for j := range softs {
				softs[j] = sat.MkLit(vars[j], rng2.Intn(2) == 0)
			}
			res := Solve(s, softs, algo)
			costs[algo] = res.Cost
			stats[algo] = res.Status
		}
		if stats[LinearDescent] != stats[OLL] {
			t.Fatalf("trial %d: status mismatch %v vs %v", trial, stats[LinearDescent], stats[OLL])
		}
		if stats[LinearDescent] == sat.Sat && costs[LinearDescent] != costs[OLL] {
			t.Fatalf("trial %d: cost mismatch linear=%d oll=%d", trial, costs[LinearDescent], costs[OLL])
		}
	}
}

// TestSolverReuseAfterCoreExtraction: after an OLL descent (cores,
// totalizers, minimization probes), the same solver answers plain and
// assumption queries correctly — assumptions are fully cleared and the
// learned state is consistent. Runs under -race in the chaos campaign.
func TestSolverReuseAfterCoreExtraction(t *testing.T) {
	s, vars := mk(6)
	exactlyOne(s, vars[:4])
	var softs []sat.Lit
	for _, v := range vars[:4] {
		softs = append(softs, sat.MkLit(v, false))
	}
	res := Solve(s, softs, OLL)
	if res.Status != sat.Sat || res.Cost != 3 {
		t.Fatalf("descent: got %+v, want cost 3", res)
	}
	// Plain solve still works and leaves no stale assumptions behind:
	// x4/x5 are unconstrained, so both polarities must be reachable.
	if st := s.Solve(sat.MkLit(vars[4], false)); st != sat.Sat {
		t.Fatalf("reuse with assumption: %v", st)
	}
	if !s.ValueLit(sat.MkLit(vars[4], false)) {
		t.Fatalf("assumption not honored after descent")
	}
	if st := s.Solve(sat.MkLit(vars[4], true)); st != sat.Sat {
		t.Fatalf("reuse with flipped assumption: %v", st)
	}
	if s.ValueLit(sat.MkLit(vars[4], false)) {
		t.Fatalf("stale assumption leaked into later solve")
	}
	// The optimum is locked semantically, not by leftover assumptions:
	// a plain solve may violate more softs than the optimum, but the
	// hard exactly-one structure still holds.
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("plain reuse: %v", st)
	}
	trues := 0
	for _, v := range vars[:4] {
		if s.Value(v) {
			trues++
		}
	}
	if trues != 1 {
		t.Fatalf("hard exactly-one broken after descent: %d true", trues)
	}
	// And a second full descent on the same solver re-finds the optimum.
	res2 := Solve(s, softs, OLL)
	if res2.Status != sat.Sat || res2.Cost != 3 {
		t.Fatalf("second descent: got %+v, want cost 3", res2)
	}
}

// TestScratchReuse solves a run of weighted instances — repeated soft
// literals, zero weights, several strata, sizes rising and falling —
// each on two solvers: through one Scratch the whole run shares, and on
// storage of its own. The Result and every solver counter are the same,
// and the shared scratch's block is replaced only for an instance with
// more softs than it holds.
func TestScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var sc Scratch
	for i, n := range []int{8, 40, 12, 40, 44, 200, 30} {
		nvars := n/2 + 3
		var hard [][]sat.Lit
		for j := 0; j < 2*nvars; j++ {
			hard = append(hard, []sat.Lit{sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0), sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0)})
		}
		softs, weights := make([]sat.Lit, n), make([]int, n)
		for j := range softs {
			softs[j] = sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0)
			weights[j] = r.Intn(4)
		}
		var solvers [2]*sat.Solver
		for k := range solvers {
			solvers[k], _ = mk(nvars)
			for _, c := range hard {
				solvers[k].AddClause(c...)
			}
		}
		block, capBefore := unsafe.SliceData(sc.block), cap(sc.block)
		got := SolveWeighted(solvers[0], softs, weights, OLL, &sc)
		want := SolveWeighted(solvers[1], softs, weights, OLL, nil)
		if got != want || solvers[0].Snapshot() != solvers[1].Snapshot() {
			t.Fatalf("instance %d: %+v with counters %+v on the shared scratch, %+v with %+v on its own",
				i, got, solvers[0].Snapshot(), want, solvers[1].Snapshot())
		}
		if replaced := unsafe.SliceData(sc.block) != block; replaced != (n > capBefore) {
			t.Errorf("instance %d: %d softs, block of %d: replaced %v", i, n, capBefore, replaced)
		}
	}
}
