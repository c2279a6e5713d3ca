package maxsat

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/smt/sat"
)

// TestSolveCtxCancelled cancels a MaxSAT solve over a hard hard-clause
// set and checks the driver unwinds with Unknown instead of finishing.
func TestSolveCtxCancelled(t *testing.T) {
	s := sat.New()
	// PHP(9, 8) as hard clauses: unsatisfiable and slow, so the driver's
	// first SAT call is where cancellation lands.
	const holes = 8
	vars := make([][]sat.Var, holes+1)
	for p := range vars {
		vars[p] = make([]sat.Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= holes; p++ {
		lits := make([]sat.Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = sat.MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 <= holes; p1++ {
			for p2 := p1 + 1; p2 <= holes; p2++ {
				s.AddClause(sat.MkLit(vars[p1][h], true), sat.MkLit(vars[p2][h], true))
			}
		}
	}
	softs := []sat.Lit{sat.MkLit(vars[0][0], false)}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res := SolveWeightedCtx(ctx, s, softs, unitWeights(softs), LinearDescent, nil)
	if res.Status != sat.Unknown {
		t.Fatalf("status = %v, want unknown", res.Status)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancelled solve took %v", d)
	}
	if !s.Interrupted() {
		t.Error("solver not marked interrupted")
	}
}

// TestSolveCtxBackground checks the context path leaves normal solves
// untouched.
func TestSolveCtxBackground(t *testing.T) {
	s := sat.New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false))
	softs := []sat.Lit{sat.MkLit(a, true), sat.MkLit(b, true)}
	res := SolveWeightedCtx(context.Background(), s, softs, []int{1, 1}, LinearDescent, nil)
	if res.Status != sat.Sat || res.Cost != 1 {
		t.Fatalf("res = %+v, want sat cost 1", res)
	}
}

// TestNoInterruptAfterReturn pins what a worker that recycles its solver
// relies on: once SolveWeightedCtx has returned, its context can no longer
// interrupt the solver. Contexts are cancelled at random points of short
// OLL descents — before, during, and as they return — and each time the
// solver is then reset and loaded with a satisfiable formula, whose solve
// must never come back Unknown. Run it under -race.
func TestNoInterruptAfterReturn(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := sat.New()
	// Cancellations are spread around the time an uncancelled descent
	// takes here, where the race between return and interrupt is.
	var took []time.Duration
	for i := 0; i < 21; i++ {
		s.Reset()
		softs := guardedPigeonhole(s, 4)
		ctx, cancel := context.WithCancel(context.Background())
		t0 := time.Now()
		SolveWeightedCtx(ctx, s, softs, unitWeights(softs), OLL, nil)
		took = append(took, time.Since(t0))
		cancel()
	}
	slices.Sort(took)
	d := took[len(took)/2]
	for i := 0; i < 300; i++ {
		s.Reset()
		softs := guardedPigeonhole(s, 4)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(d/2+time.Duration(rng.Int63n(int64(d))), cancel)
		if i%2 == 0 {
			cancel() // the callback starts at once, and may still lag the return
		}
		SolveWeightedCtx(ctx, s, softs, unitWeights(softs), OLL, nil)

		s.Reset()
		nVars, stream := planted(rng, 500, 2000)
		s.Load(nVars, stream)
		if st := s.Solve(); st != sat.Sat {
			t.Fatalf("round %d: satisfiable formula after a cancelled solve = %v, want sat", i, st)
		}
		timer.Stop()
		cancel()
	}
}

// guardedPigeonhole loads PHP(holes+1, holes) into the empty solver s with
// each pigeon's at-least-one clause guarded by a selector, and returns the
// selectors as softs: satisfiable, but OLL has to refute the pigeonhole
// to find that one selector must go.
func guardedPigeonhole(s *sat.Solver, holes int) []sat.Lit {
	pigeons := holes + 1
	x := func(p, h int) sat.Lit { return sat.MkLit(sat.Var(pigeons+p*holes+h), false) }
	var softs, stream []sat.Lit
	for p := 0; p < pigeons; p++ {
		softs = append(softs, sat.MkLit(sat.Var(p), false))
		c := []sat.Lit{softs[p].Not()}
		for h := 0; h < holes; h++ {
			c = append(c, x(p, h))
		}
		stream = sat.AppendClause(stream, c...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				stream = sat.AppendClause(stream, x(p, h).Not(), x(q, h).Not())
			}
		}
	}
	s.Load(pigeons*(holes+1), stream)
	return softs
}

// planted returns a random 3-literal CNF over n variables that a hidden
// assignment satisfies: every clause holds one literal true under it.
func planted(rng *rand.Rand, n, clauses int) (int, []sat.Lit) {
	hidden := make([]bool, n)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	var stream []sat.Lit
	for i := 0; i < clauses; i++ {
		c := make([]sat.Lit, 3)
		for j := range c {
			c[j] = sat.MkLit(sat.Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		v := c[0].Var()
		c[0] = sat.MkLit(v, !hidden[v])
		stream = sat.AppendClause(stream, c...)
	}
	return n, stream
}

// unitWeights gives every soft weight 1, which SolveWeightedCtx solves
// exactly as the unweighted engines do.
func unitWeights(softs []sat.Lit) []int {
	w := make([]int, len(softs))
	for i := range w {
		w[i] = 1
	}
	return w
}
