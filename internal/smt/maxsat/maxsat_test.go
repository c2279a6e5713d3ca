package maxsat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/smt/sat"
)

func mk(n int) (*sat.Solver, []sat.Var) {
	s := sat.New()
	vars := make([]sat.Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	return s, vars
}

func TestAllSoftsSatisfiable(t *testing.T) {
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		s, vars := mk(3)
		s.AddClause(sat.MkLit(vars[0], false), sat.MkLit(vars[1], false))
		softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[2], false)}
		res := Solve(s, softs, algo)
		if res.Status != sat.Sat || res.Cost != 0 {
			t.Errorf("%v: got %+v, want cost 0", algo, res)
		}
		if v := countViolated(s, softs); v != 0 {
			t.Errorf("%v: model violates %d softs", algo, v)
		}
	}
}

func TestConflictingSofts(t *testing.T) {
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		s, vars := mk(1)
		softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[0], true)}
		res := Solve(s, softs, algo)
		if res.Status != sat.Sat || res.Cost != 1 {
			t.Errorf("%v: got %+v, want cost 1", algo, res)
		}
	}
}

func TestHardUnsat(t *testing.T) {
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		s, vars := mk(1)
		s.AddClause(sat.MkLit(vars[0], false))
		s.AddClause(sat.MkLit(vars[0], true))
		res := Solve(s, []sat.Lit{sat.MkLit(vars[0], false)}, algo)
		if res.Status != sat.Unsat {
			t.Errorf("%v: got %+v, want unsat", algo, res)
		}
	}
}

func TestHardConstraintsForceViolations(t *testing.T) {
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		s, vars := mk(4)
		// Hard: exactly-one of x0..x3 true (at least one + pairwise AMO).
		s.AddClause(sat.MkLit(vars[0], false), sat.MkLit(vars[1], false), sat.MkLit(vars[2], false), sat.MkLit(vars[3], false))
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				s.AddClause(sat.MkLit(vars[i], true), sat.MkLit(vars[j], true))
			}
		}
		// Softs: all four true → optimum violates 3.
		var softs []sat.Lit
		for i := 0; i < 4; i++ {
			softs = append(softs, sat.MkLit(vars[i], false))
		}
		res := Solve(s, softs, algo)
		if res.Status != sat.Sat || res.Cost != 3 {
			t.Errorf("%v: got %+v, want cost 3", algo, res)
		}
		if v := countViolated(s, softs); v != 3 {
			t.Errorf("%v: model violates %d, want 3", algo, v)
		}
	}
}

func TestViolatedIndices(t *testing.T) {
	s, vars := mk(2)
	s.AddClause(sat.MkLit(vars[0], false)) // x0 true
	s.AddClause(sat.MkLit(vars[1], true))  // x1 false
	softs := []sat.Lit{sat.MkLit(vars[0], false), sat.MkLit(vars[1], false)}
	res := Solve(s, softs, LinearDescent)
	if res.Cost != 1 {
		t.Fatalf("cost = %d, want 1", res.Cost)
	}
	idx := Violated(s, softs)
	if len(idx) != 1 || idx[0] != 1 {
		t.Errorf("Violated = %v, want [1]", idx)
	}
}

// bruteOptimum computes the true optimum by enumeration.
func bruteOptimum(nvars int, hard [][]sat.Lit, softs []sat.Lit) (int, bool) {
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
		for _, l := range softs {
			if !val(l) {
				violated++
			}
		}
		if best == -1 || violated < best {
			best = violated
		}
	}
	return best, best != -1
}

// Property: both algorithms find the brute-force optimum on random
// instances, and they agree with each other.
func TestDifferentialOptimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvars := 3 + r.Intn(5)
		nhard := r.Intn(10)
		nsoft := 1 + r.Intn(6)
		var hard [][]sat.Lit
		for i := 0; i < nhard; i++ {
			var c []sat.Lit
			width := 1 + r.Intn(3)
			for j := 0; j < width; j++ {
				c = append(c, sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			hard = append(hard, c)
		}
		var softs []sat.Lit
		for i := 0; i < nsoft; i++ {
			softs = append(softs, sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0))
		}
		want, feasible := bruteOptimum(nvars, hard, softs)

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
				res = Solve(s, softs, algo)
			}
			if feasible {
				if res.Status != sat.Sat || res.Cost != want {
					t.Logf("seed %d algo %v: got %+v, want cost %d", seed, algo, res, want)
					return false
				}
				if ok && countViolated(s, softs) != want {
					t.Logf("seed %d algo %v: model cost mismatch", seed, algo)
					return false
				}
			} else if res.Status != sat.Unsat {
				t.Logf("seed %d algo %v: got %+v, want unsat", seed, algo, res)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLargerInstanceBothAlgorithms(t *testing.T) {
	// 20 softs forcing a chain: x_i soft-true, hard x_i → ¬x_{i+1} for
	// even i: optimum violates 10.
	for _, algo := range []Algorithm{LinearDescent, OLL} {
		s, vars := mk(20)
		for i := 0; i < 20; i += 2 {
			s.AddClause(sat.MkLit(vars[i], true), sat.MkLit(vars[i+1], true))
		}
		var softs []sat.Lit
		for i := 0; i < 20; i++ {
			softs = append(softs, sat.MkLit(vars[i], false))
		}
		res := Solve(s, softs, algo)
		if res.Status != sat.Sat || res.Cost != 10 {
			t.Errorf("%v: got %+v, want cost 10", algo, res)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if LinearDescent.String() != "linear" || OLL.String() != "oll" {
		t.Error("Algorithm.String wrong")
	}
}
