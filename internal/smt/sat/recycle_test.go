package sat

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// These tests pin the solver-recycle contract the fault-isolated repair
// driver relies on: a solver whose search was stopped mid-flight — by a
// sticky Interrupt or an exhausted conflict Budget — must come back
// clean, so the next solve on the same instance cannot be poisoned by
// leftover trail, decision levels, or a stale stop flag.

func TestSolverReuseAfterMidSolveInterrupt(t *testing.T) {
	// PHP(12, 11) keeps the search running long enough to interrupt it
	// genuinely mid-flight (vars: pigeon p in hole h is Var(p*11+h)).
	const holes = 11
	s := pigeonhole(holes)

	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(30 * time.Millisecond)
	s.Interrupt()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("interrupted solve = %v, want unknown", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver did not honor Interrupt within 5s")
	}

	s.ClearInterrupt()
	if s.Interrupted() {
		t.Fatal("Interrupted() = true after ClearInterrupt")
	}
	if lvl := s.decisionLevel(); lvl != 0 {
		t.Fatalf("decision level = %d after interrupted solve, want 0 (clean backtrack)", lvl)
	}
	if !s.Okay() {
		t.Fatal("interrupted solve marked the solver unsat")
	}

	// Pigeon 0 must sit in some hole: assuming it sits in none
	// contradicts its at-least-one clause. A cleanly recycled solver
	// proves that by propagation; a poisoned one would wedge or lie.
	neg := make([]Lit, holes)
	for h := 0; h < holes; h++ {
		neg[h] = MkLit(Var(h), true)
	}
	if st := s.Solve(neg...); st != Unsat {
		t.Fatalf("conflicting assumptions on recycled solver = %v, want unsat", st)
	}
	// Assumption-scoped unsat must not stick to the solver either.
	if !s.Okay() {
		t.Fatal("assumption unsat marked the solver permanently unsat")
	}
	if lvl := s.decisionLevel(); lvl != 0 {
		t.Fatalf("decision level = %d after assumption solve, want 0", lvl)
	}
}

func TestSolverReuseProducesVerifiedModel(t *testing.T) {
	s := New()
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	clauses := [][]Lit{
		{MkLit(vars[0], false), MkLit(vars[1], false)},
		{MkLit(vars[0], true), MkLit(vars[2], false)},
		{MkLit(vars[1], true), MkLit(vars[3], false)},
		{MkLit(vars[2], true), MkLit(vars[4], true), MkLit(vars[5], false)},
		{MkLit(vars[3], true), MkLit(vars[4], false)},
		{MkLit(vars[5], true), MkLit(vars[0], false), MkLit(vars[4], false)},
	}
	for _, c := range clauses {
		if !s.AddClause(c...) {
			t.Fatal("clause set unexpectedly trivially unsat")
		}
	}

	// A pending interrupt aborts the first solve (the spurious-interrupt
	// failure the chaos suite injects)…
	s.Interrupt()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("solve with pending interrupt = %v, want unknown", st)
	}
	// …and after clearing, the same solver must return a model that
	// satisfies every clause.
	s.ClearInterrupt()
	if st := s.Solve(); st != Sat {
		t.Fatalf("recycled solve = %v, want sat", st)
	}
	for i, c := range clauses {
		ok := false
		for _, l := range c {
			if s.ValueLit(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("model falsifies clause %d", i)
		}
	}
}

func TestSolverReuseAfterBudgetExhaustion(t *testing.T) {
	s := pigeonhole(6)
	s.Budget = 5
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted PHP(7) solve = %v, want unknown (budget exhausted)", st)
	}
	// Budget exhaustion is not an interrupt: the caller distinguishes the
	// two to decide between retrying with a bigger budget and giving up.
	if s.Interrupted() {
		t.Fatal("budget exhaustion set the interrupt flag")
	}
	if lvl := s.decisionLevel(); lvl != 0 {
		t.Fatalf("decision level = %d after budget exhaustion, want 0", lvl)
	}
	// Lifting the budget on the same solver (learned clauses retained)
	// must reach the true verdict.
	s.Budget = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbudgeted re-solve = %v, want unsat", st)
	}
	// A root-level unsat IS sticky — further solves answer immediately.
	if st := s.Solve(); st != Unsat {
		t.Fatalf("solve after unsat = %v, want unsat", st)
	}
}

// TestResetIsNew pins Reset ≡ New field by field. A solver is driven
// through everything a worker's solver sees — a model, a budget run out,
// an unsat core, learnt-clause reductions and arena GCs, moved lists, an
// interrupt left pending — and then Reset: every field must equal a new
// solver's, slices compared by content (capacity is storage, not state),
// and every array setNumVars extends in place must be zero through its
// capacity. A field added to Solver without its line in Reset fails here.
func TestResetIsNew(t *testing.T) {
	// PHP(6, 5) with pigeon p's at-least-one clause guarded by sel[p]:
	// satisfiable, unsatisfiable under all the selectors.
	const holes = 5
	s := New()
	s.SetMaxLearned(0)
	s.SetGCWasteFraction(0.01)
	sel := make([]Lit, holes+1)
	x := make([][]Lit, holes+1)
	for p := range x {
		sel[p] = MkLit(s.NewVar(), false)
		for h := 0; h < holes; h++ {
			x[p] = append(x[p], MkLit(s.NewVar(), false))
		}
		s.AddClause(append([]Lit{sel[p].Not()}, x[p]...)...)
	}
	for h := 0; h < holes; h++ {
		for p := range x {
			for q := p + 1; q < len(x); q++ {
				s.AddClause(x[p][h].Not(), x[q][h].Not())
			}
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("plain solve = %v, want sat", st)
	}
	s.Budget = 2
	if st := s.Solve(sel...); st != Unknown {
		t.Fatalf("budgeted solve = %v, want unknown", st)
	}
	s.Budget = 1 << 20 // enough to finish, and left set for Reset to clear
	if st := s.Solve(sel...); st != Unsat || len(s.UnsatCore()) == 0 {
		t.Fatalf("solve under every selector = %v with core %v, want unsat with a core", st, s.UnsatCore())
	}
	if s.DBReductions == 0 || s.ArenaGCs == 0 || len(s.model) == 0 {
		t.Fatalf("%d reductions, %d arena GCs, %d model values: the solver was not driven far enough",
			s.DBReductions, s.ArenaGCs, len(s.model))
	}
	s.Interrupt()
	s.Reset()
	if d := diffFields("Solver", reflect.ValueOf(s).Elem(), reflect.ValueOf(New()).Elem()); d != "" {
		t.Fatalf("reset solver differs from a new one: %s", d)
	}
	for name, zero := range map[string]bool{
		"vals": allZero(s.vals), "phase": allZero(s.phase), "level": allZero(s.level),
		"reason": allZero(s.reason), "activity": allZero(s.activity), "seen": allZero(s.seen),
		"litStamp": allZero(s.litStamp), "lbdStamp": allZero(s.lbdStamp),
		"bins.win": allZero(s.bins.win), "watches.win": allZero(s.watches.win),
	} {
		if !zero {
			t.Errorf("%s: spare capacity written after Reset", name)
		}
	}
}

// diffFields describes the first difference between a and b, two values
// of one type, or returns "": pointers are followed, slices compare by
// length and elements, floats bit for bit.
func diffFields(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		return diffFields(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffFields(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffFields(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}

// allZero reports whether xs is zero through its whole capacity.
func allZero[T comparable](xs []T) bool {
	var zero T
	for _, x := range xs[:cap(xs)] {
		if x != zero {
			return false
		}
	}
	return true
}

// TestResetClearsInterrupt: a reset solver's next Solve is not stopped by
// an interrupt its previous formula received.
func TestResetClearsInterrupt(t *testing.T) {
	s := New()
	s.AddClause(MkLit(s.NewVar(), false))
	s.Interrupt()
	s.Reset()
	a := s.NewVar()
	s.AddClause(MkLit(a, true))
	if st := s.Solve(); st != Sat || s.Value(a) {
		t.Fatalf("solve after Interrupt and Reset = %v, want sat with the variable false", st)
	}
}
