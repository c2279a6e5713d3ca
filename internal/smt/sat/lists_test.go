package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWatchGrowthDuringPropagate drives propagate over solvers built with
// AddClause only, whose windows start empty: moving a watch then pushes
// into a list that has to move and, when the tail is used up, into a
// backing that has to be reallocated — while propagate is in the middle
// of filtering another window of that very backing. Each instance is
// first propagated decision by decision (before any clause is learned,
// so all growth seen is propagate's own), then solved; verdicts are held
// to the pigeonhole principle and to the reference DPLL, models to
// debugVerifyModel, and the storage invariants are checked throughout.
func TestWatchGrowthDuringPropagate(t *testing.T) {
	DebugParanoid(true)
	defer DebugParanoid(false)
	var moved, regrown int
	drive := func(s *Solver, rng *rand.Rand) {
		for v := 0; v < s.NumVars(); v++ {
			if s.value(MkLit(Var(v), false)) != lUndef {
				continue
			}
			offs := make([]uint32, len(s.watches.win))
			for l, w := range s.watches.win {
				offs[l] = w.off
			}
			room := cap(s.watches.back)
			s.newDecisionLevel()
			s.enqueue(MkLit(Var(v), rng.Intn(2) == 0), refUndef)
			conflict := s.propagate()
			checkInvariants(t, s)
			for l, w := range s.watches.win {
				if w.off != offs[l] {
					moved++
				}
			}
			if cap(s.watches.back) != room {
				regrown++
			}
			if conflict != refUndef {
				break
			}
		}
		s.cancelUntil(0)
	}

	for n := 3; n <= 6; n++ {
		s := pigeonhole(n)
		drive(s, rand.New(rand.NewSource(int64(n))))
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d) = %v, want unsat", n, got)
		}
		checkInvariants(t, s)
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 10 + rng.Intn(8)
		s := New()
		randomCNF(s, rng, nVars, 4*nVars)
		// Width 3 over distinct variables and no units: every clause is in
		// the arena as it was given.
		clauses := make([][]Lit, len(s.clauses))
		for i, ref := range s.clauses {
			for _, w := range s.lits(ref) {
				clauses[i] = append(clauses[i], Lit(w))
			}
		}
		drive(s, rng)
		want := Unsat
		if dpll(clauses, nVars) {
			want = Sat
		}
		if got := s.Solve(); got != want { // a Sat model passes debugVerifyModel or Solve panics
			t.Fatalf("seed %d: %v, reference says %v", seed, got, want)
		}
		checkInvariants(t, s)
	}
	if moved == 0 || regrown == 0 {
		t.Errorf("propagate moved %d lists and reallocated the backing %d times; the test needs both", moved, regrown)
	}
}

// TestUnallocatedLiteralPanics pins the labeled panic for a literal that
// is negative or past the allocated variables, wherever it sits in a
// clause and whichever way the clause comes in: positions 1 and 2 are the
// ones Load's sizing pass reads, position 4 is written to the arena by
// the in-place pass without going through AddClause, binary and ternary
// clauses take Load's paths for those widths, and a second Load into a
// solver that holds clauses skips the sizing pass.
func TestUnallocatedLiteralPanics(t *testing.T) {
	const nVars = 6
	for _, bad := range []Lit{-1, -8, 2 * nVars, 2*nVars + 5} {
		for _, at := range []struct{ width, pos int }{{5, 0}, {5, 1}, {5, 3}, {2, 0}, {2, 1}, {3, 0}, {3, 1}, {3, 2}} {
			clause := lits(1, -2, 3, 4, -5)[:at.width]
			clause[at.pos] = bad
			name := fmt.Sprintf("lit%d/pos%d", bad, at.pos+1)
			if at.width < 5 {
				name = fmt.Sprintf("lit%d/width%d/pos%d", bad, at.width, at.pos+1)
			}
			for _, via := range []string{"AddClause", "Load", "LoadAgain"} {
				t.Run(via+"/"+name, func(t *testing.T) {
					defer func() {
						if r := recover(); r != "sat: literal references unallocated variable" {
							t.Errorf("recovered %v, want the labeled panic", r)
						}
					}()
					s := newSolverWithVars(nVars)
					switch via {
					case "Load":
						s.Load(nVars, AppendClause(AppendClause(nil, lits(1, 2)...), clause...))
					case "LoadAgain":
						s.Load(nVars, AppendClause(nil, lits(1, 2)...))
						s.Load(nVars, AppendClause(nil, clause...))
					default:
						s.AddClause(clause...)
					}
				})
			}
		}
	}
}

// TestLoadAllocsConstant holds Load into a new solver to a fixed number
// of allocations — the per-variable arrays, the two backings, the arena —
// whatever the size of the formula: nothing is allocated per literal or
// per list, and the headroom absorbs the lists level-0 simplification
// makes outgrow their windows.
func TestLoadAllocsConstant(t *testing.T) {
	for _, nVars := range []int{500, 20_000, 78_000} {
		stream := dcShapedStream(rand.New(rand.NewSource(19)), nVars, 5*nVars)
		got := testing.AllocsPerRun(3, func() { New().Load(nVars, stream) })
		t.Logf("%d variables, %d clauses: %.0f allocations", nVars, 5*nVars, got)
		if got > 24 {
			t.Errorf("%d variables: %.0f allocations per Load, want at most 24", nVars, got)
		}
	}
}
