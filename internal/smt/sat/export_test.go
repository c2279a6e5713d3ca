package sat

import (
	"fmt"
	"slices"
)

// White-box helpers for the external test package (load_test.go imports
// maxsat, which imports this package, so it cannot be an internal test).

// DCShapedStream is dcShapedStream (bench_test.go).
var DCShapedStream = dcShapedStream

// CheckInvariants is checkWatches (invariant_test.go).
var CheckInvariants = checkWatches

// StateDiff describes the first difference between the internal states of
// two solvers, or returns "" when they agree on everything search reads:
// ok, every literal's implication list and watch list in order, the arena
// word for word, the clause references, the trail and the propagation
// head. Where a list's window sits in its backing is storage, not state,
// and is not compared.
func StateDiff(a, b *Solver) string {
	switch {
	case a.ok != b.ok:
		return fmt.Sprintf("ok: %v vs %v", a.ok, b.ok)
	case len(a.assigns) != len(b.assigns):
		return fmt.Sprintf("variables: %d vs %d", len(a.assigns), len(b.assigns))
	case !slices.Equal(a.trail, b.trail):
		return fmt.Sprintf("trail: %v vs %v", a.trail, b.trail)
	case a.qhead != b.qhead:
		return fmt.Sprintf("qhead: %d vs %d", a.qhead, b.qhead)
	case !slices.Equal(a.arena, b.arena):
		return fmt.Sprintf("arena: %v vs %v", a.arena, b.arena)
	case !slices.Equal(a.clauses, b.clauses):
		return fmt.Sprintf("clause refs: %v vs %v", a.clauses, b.clauses)
	case !slices.Equal(a.learnts, b.learnts):
		return fmt.Sprintf("learnt refs: %v vs %v", a.learnts, b.learnts)
	}
	for l := range a.bins.win {
		if x, y := a.bins.list(Lit(l)), b.bins.list(Lit(l)); !slices.Equal(x, y) {
			return fmt.Sprintf("implications of %v: %v vs %v", Lit(l), x, y)
		}
		if x, y := a.watches.list(Lit(l)), b.watches.list(Lit(l)); !slices.Equal(x, y) {
			return fmt.Sprintf("watch list of %v: %v vs %v", Lit(l), x, y)
		}
	}
	return ""
}
