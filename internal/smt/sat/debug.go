package sat

import "fmt"

// debugVerifyModel panics if any live clause is unsatisfied by the
// current full assignment. Used only in tests.
func (s *Solver) debugVerifyModel() {
	check := func(ref uint32, learned bool) {
		good := false
		undef := false
		for _, w := range s.lits(ref) {
			switch s.value(Lit(w)) {
			case lTrue:
				good = true
			case lUndef:
				undef = true
			}
		}
		if !good {
			lits := make([]Lit, 0, 8)
			for _, w := range s.lits(ref) {
				lits = append(lits, Lit(w))
			}
			panic(fmt.Sprintf("clause %d unsatisfied (undef=%v, learned=%v): %v", ref, undef, learned, lits))
		}
	}
	for _, ref := range s.clauses {
		check(ref, false)
	}
	for _, ref := range s.learnts {
		check(ref, true)
	}
	// Each binary clause {p.Not(), q} appears as q in p's list (twice in
	// total, once per orientation); checking both is harmless.
	for p := range s.bins.win {
		for _, q := range s.bins.list(Lit(p)) {
			if s.value(Lit(p).Not()) != lTrue && s.value(q) != lTrue {
				panic(fmt.Sprintf("binary clause {%v, %v} unsatisfied", Lit(p).Not(), q))
			}
		}
	}
}
