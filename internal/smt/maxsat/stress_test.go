package maxsat

import (
	"math/rand"
	"testing"

	"repro/internal/smt/sat"
)

// TestStressLargerDifferential compares both algorithms against brute
// force on larger random instances that exercise learning, restarts, and
// incremental reuse.
func TestStressLargerDifferential(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		nvars := 10 + r.Intn(8)
		nhard := 20 + r.Intn(60)
		nsoft := 5 + r.Intn(15)
		var hard [][]sat.Lit
		for i := 0; i < nhard; i++ {
			var c []sat.Lit
			width := 2 + r.Intn(2)
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
			s := sat.New()
			for i := 0; i < nvars; i++ {
				s.NewVar()
			}
			ok := true
			for _, c := range hard {
				if !s.AddClause(c...) {
					ok = false
				}
			}
			if !ok {
				if feasible {
					t.Fatalf("seed %d: AddClause claims unsat but brute says feasible", seed)
				}
				continue
			}
			res := Solve(s, softs, algo)
			if feasible {
				if res.Status != sat.Sat || res.Cost != want {
					t.Fatalf("seed %d algo %v: got %+v, want cost %d", seed, algo, res, want)
				}
			} else if res.Status != sat.Unsat {
				t.Fatalf("seed %d algo %v: got %+v, want unsat", seed, algo, res)
			}
		}
	}
}
