package maxsat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/smt/sat"
)

func TestWeightedBasic(t *testing.T) {
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		// x vs !x, weighted 3 vs 1: keep x (violating the weight-1 soft).
		s, vars := mk(1)
		softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[0], true)}
		res := SolveWeighted(s, softs, []int{3, 1}, algo, nil)
		if res.Status != sat.Sat || res.Cost != 1 {
			t.Errorf("%v: got %+v, want cost 1", algo, res)
		}
		if !s.Value(vars[0]) {
			t.Errorf("%v: the weight-3 preference should win", algo)
		}
	}
}

func TestWeightedZeroWeightIgnored(t *testing.T) {
	s, vars := mk(1)
	s.AddClause(sat.MkLit(vars[0], true)) // force !x
	softs := []sat.Lit{sat.MkLit(vars[0], false)}
	res := SolveWeighted(s, softs, []int{0}, LinearDescent, nil)
	if res.Status != sat.Sat || res.Cost != 0 {
		t.Errorf("zero-weight soft should cost nothing: %+v", res)
	}
}

func TestWeightedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	s, vars := mk(1)
	SolveWeighted(s, []sat.Lit{sat.MkLit(vars[0], false)}, nil, LinearDescent, nil)
}

// bruteWeightedOptimum enumerates assignments for the true weighted
// optimum.
func bruteWeightedOptimum(nvars int, hard [][]sat.Lit, softs []sat.Lit, weights []int) (int, bool) {
	best := -1
	for mask := 0; mask < 1<<nvars; mask++ {
		val := func(l sat.Lit) bool {
			bit := mask&(1<<uint(l.Var())) != 0
			if l.Neg() {
				return !bit
			}
			return bit
		}
		ok := true
		for _, c := range hard {
			cs := false
			for _, l := range c {
				if val(l) {
					cs = true
					break
				}
			}
			if !cs {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		violated := 0
		for i, l := range softs {
			if !val(l) {
				violated += weights[i]
			}
		}
		if best == -1 || violated < best {
			best = violated
		}
	}
	return best, best != -1
}

// Property: both algorithms find the brute-force weighted optimum.
func TestWeightedDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvars := 3 + r.Intn(5)
		nhard := r.Intn(8)
		nsoft := 1 + r.Intn(5)
		var hard [][]sat.Lit
		for i := 0; i < nhard; i++ {
			var c []sat.Lit
			for j := 0; j < 2+r.Intn(2); j++ {
				c = append(c, sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			hard = append(hard, c)
		}
		var softs []sat.Lit
		var weights []int
		for i := 0; i < nsoft; i++ {
			softs = append(softs, sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0))
			weights = append(weights, r.Intn(4))
		}
		want, feasible := bruteWeightedOptimum(nvars, hard, softs, weights)
		for _, algo := range []Algorithm{LinearDescent, OLL} {
			s, _ := mk(nvars)
			ok := true
			for _, c := range hard {
				if !s.AddClause(c...) {
					ok = false
				}
			}
			var res Result
			if !ok {
				res = Result{Status: sat.Unsat}
			} else {
				res = SolveWeighted(s, softs, weights, algo, nil)
			}
			if feasible {
				if res.Status != sat.Sat || res.Cost != want {
					t.Logf("seed %d algo %v: got %+v, want %d", seed, algo, res, want)
					return false
				}
			} else if res.Status != sat.Unsat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
