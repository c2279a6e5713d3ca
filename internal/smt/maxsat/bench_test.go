package maxsat

import (
	"math/rand"
	"testing"

	"repro/internal/smt/sat"
)

// benchInstance builds a structured MaxSAT instance shaped like CPR's
// repair encodings: groups of exactly-one constraints (route choices)
// whose softs prefer the blocked member, so the optimum must extract
// one core per group. nGroups×groupSize softs, optimum = nGroups×(groupSize-1).
func benchInstance(s *sat.Solver, nGroups, groupSize int, seed int64) []sat.Lit {
	rng := rand.New(rand.NewSource(seed))
	var softs []sat.Lit
	for g := 0; g < nGroups; g++ {
		vars := make([]sat.Var, groupSize)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		all := make([]sat.Lit, groupSize)
		for i, v := range vars {
			all[i] = sat.MkLit(v, false)
		}
		s.AddClause(all...)
		for i := 0; i < groupSize; i++ {
			for j := i + 1; j < groupSize; j++ {
				s.AddClause(all[i].Not(), all[j].Not())
			}
		}
		for _, l := range all {
			softs = append(softs, l)
		}
		// A little cross-group noise so cores are not perfectly local.
		if g > 0 && rng.Intn(2) == 0 {
			prev := sat.MkLit(vars[0], false)
			s.AddClause(prev, sat.MkLit(sat.Var(int(vars[0])-groupSize), true))
		}
	}
	return softs
}

func benchSolve(b *testing.B, algo Algorithm, nGroups, groupSize int) {
	want := nGroups * (groupSize - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		softs := benchInstance(s, nGroups, groupSize, 3)
		res := Solve(s, softs, algo)
		if res.Status != sat.Sat || res.Cost != want {
			b.Fatalf("%v: got %+v, want cost %d", algo, res, want)
		}
	}
}

func BenchmarkMaxSATOLL(b *testing.B)    { benchSolve(b, OLL, 24, 5) }
func BenchmarkMaxSATLinear(b *testing.B) { benchSolve(b, LinearDescent, 24, 5) }

// The weighted pair exercises stratification (OLL) vs duplication
// (linear): weights 1..4 assigned round-robin.
func benchSolveWeighted(b *testing.B, algo Algorithm) {
	b.ReportAllocs()
	b.ResetTimer()
	var ref int
	for i := 0; i < b.N; i++ {
		s := sat.New()
		softs := benchInstance(s, 16, 4, 9)
		weights := make([]int, len(softs))
		for j := range weights {
			weights[j] = 1 + j%4
		}
		res := SolveWeighted(s, softs, weights, algo, nil)
		if res.Status != sat.Sat {
			b.Fatalf("%v: got %+v", algo, res)
		}
		if ref == 0 {
			ref = res.Cost
		} else if res.Cost != ref {
			b.Fatalf("%v: cost drifted %d -> %d", algo, ref, res.Cost)
		}
	}
}

func BenchmarkMaxSATWeightedOLL(b *testing.B)    { benchSolveWeighted(b, OLL) }
func BenchmarkMaxSATWeightedLinear(b *testing.B) { benchSolveWeighted(b, LinearDescent) }
