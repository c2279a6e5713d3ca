package sat_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/smt/sat"
)

// TestStampWrap drives AddClause's literal stamps and the LBD level stamps
// across the 32-bit wrap and holds the solver to a twin that makes the
// same calls with its counters far from it: after every step the two must
// agree in state (sat.StateDiff: every list, the arena — which carries
// each learnt clause's LBD — the heap), counters and verdicts. Each leg
// first leaves stamps of the very first generations behind, then puts the
// solver's generations just below the wrap (sat.SetStampGens), so a
// generation that wrapped without clearing would meet those stamps again
// (restarting at 1) or meet never-stamped zeroes (wrapping to 0). A last
// leg holds nextStamp to clearing the stamps' spare capacity too.
func TestStampWrap(t *testing.T) {
	same := func(t *testing.T, stage string, wrapped, twin *sat.Solver) {
		t.Helper()
		if d := sat.StateDiff(wrapped, twin); d != "" {
			t.Fatalf("%s: the solver across the wrap and its twin differ: %s", stage, d)
		}
		if a, b := wrapped.Snapshot(), twin.Snapshot(); a != b {
			t.Fatalf("%s: counters differ:\nwrapped %+v\ntwin    %+v", stage, a, b)
		}
		sat.CheckInvariants(t, wrapped)
	}

	// AddClause: three clauses whose literals occur nowhere else take
	// generations 1–3; after the hook, the clauses with generations
	// MaxUint32-1, MaxUint32, 1, 2, 3 repeat and complement literals and
	// reuse those three clauses' literals.
	t.Run("AddClause", func(t *testing.T) {
		const nVars = 17
		p := func(i int) sat.Lit { return sat.MkLit(sat.Var(i), false) }
		q := func(i int) sat.Lit { return p(9 + i) }
		first := [][]sat.Lit{
			{p(0), p(1), p(2).Not()},
			{p(3), p(4).Not(), p(5)},
			{p(6), p(7), p(8)},
		}
		again := [][]sat.Lit{
			{q(0), q(0), q(1), q(2)},             // a repeated literal
			{q(3), q(3).Not(), q(4)},             // a complementary pair
			{p(0), p(1), p(2).Not(), q(5), q(5)}, // first[0] again, a repeat
			{p(3), p(4).Not(), p(5), q(6).Not()}, // first[1] again
			{p(6), p(7), p(8), q(7), q(7).Not()}, // first[2] again, a complementary pair
		}
		wrapped, twin := sat.New(), sat.New()
		for _, s := range []*sat.Solver{wrapped, twin} {
			for i := 0; i < nVars; i++ {
				s.NewVar()
			}
			for _, c := range first {
				s.AddClause(c...)
			}
		}
		sat.SetStampGens(wrapped, math.MaxUint32-2)
		for i, c := range again {
			wrapped.AddClause(c...)
			twin.AddClause(c...)
			same(t, fmt.Sprintf("again[%d]", i), wrapped, twin)
		}
		if add, _ := sat.StampGens(wrapped); add != 3 {
			t.Fatalf("literal stamp generation %d after the wrap, want 3", add)
		}
		for _, s := range []*sat.Solver{wrapped, twin} {
			if st := s.Solve(); st != sat.Sat {
				t.Fatalf("solve: %v, want sat", st)
			}
		}
		same(t, "after Solve", wrapped, twin)
	})

	// LBD: each round adds a gadget — k fresh assumption variables and two
	// free variables x, y whose four clauses (every sign pair, each with
	// the negated assumptions) are unsatisfiable once the assumptions
	// hold — and solves under those assumptions. The one decision left,
	// x or y, conflicts at once and teaches a clause over levels 1..k+1
	// (one LBD computation); the core follows at level k. The gadget is
	// then fixed at level 0, so the next round starts with every variable
	// assigned but its own. Round one stamps levels 1–7 with generation
	// 1; after the hook, two rounds stamp levels 1–3 with MaxUint32-1 and
	// MaxUint32, and the last learns a clause over levels 1–9.
	t.Run("LBD", func(t *testing.T) {
		gadget := func(s *sat.Solver, k int) {
			asm := make([]sat.Lit, k)
			for i := range asm {
				asm[i] = sat.MkLit(s.NewVar(), false)
			}
			x, y := sat.MkLit(s.NewVar(), false), sat.MkLit(s.NewVar(), false)
			for _, xy := range [][2]sat.Lit{{x, y}, {x, y.Not()}, {x.Not(), y}, {x.Not(), y.Not()}} {
				c := xy[:]
				for _, a := range asm {
					c = append(c, a.Not())
				}
				s.AddClause(c...)
			}
			if st := s.Solve(asm...); st != sat.Unsat {
				t.Fatalf("gadget of %d: %v, want unsat", k, st)
			}
			for _, a := range asm {
				s.AddClause(a.Not())
			}
			s.AddClause(x)
			s.AddClause(y)
		}
		wrapped, twin := sat.New(), sat.New()
		for i, k := range []int{6, 2, 2, 8} {
			if i == 1 {
				sat.SetStampGens(wrapped, math.MaxUint32-2)
			}
			gadget(wrapped, k)
			gadget(twin, k)
			same(t, "gadget", wrapped, twin)
		}
		if twin.LearnedLits != 7+3+3+9 {
			t.Fatalf("learned %d literals, want one clause of k+1 per gadget (22)", twin.LearnedLits)
		}
		if _, lbd := sat.StampGens(wrapped); lbd != 1 {
			t.Fatalf("LBD stamp generation %d after the wrap, want 1", lbd)
		}
	})

	// Capacity: setNumVars reslices the stamp arrays up into their spare
	// capacity, so the wrap clears all of it, not just the live length. The
	// solver never stamps past the length today, which the two legs above
	// cannot see; this one leaves generation-1 stamps there directly.
	t.Run("Capacity", func(t *testing.T) {
		stamps := make([]uint32, 8)
		for i := range stamps {
			stamps[i] = 1
		}
		gen := uint32(math.MaxUint32)
		if g := sat.NextStamp(stamps[:4], &gen); g != 1 || gen != 1 {
			t.Fatalf("generation %d (counter %d) after the wrap, want 1", g, gen)
		}
		for i, st := range stamps {
			if st != 0 {
				t.Fatalf("stamp %d is %d after the wrap: only a length's worth was cleared", i, st)
			}
		}
	})
}
