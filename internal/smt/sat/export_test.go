package sat

import (
	"fmt"
	"math"
	"slices"
)

// White-box helpers for the external test package (load_test.go imports
// maxsat, which imports this package, so it cannot be an internal test).

// DCShapedStream is dcShapedStream (bench_test.go).
var DCShapedStream = dcShapedStream

// CheckInvariants is checkInvariants (invariant_test.go).
var CheckInvariants = checkInvariants

// SetStampGens puts both stamp generations (AddClause's literal stamps
// and the LBD level stamps) at g, so a test can drive them across the
// wrap.
func SetStampGens(s *Solver, g uint32) { s.addGen, s.lbdGen = g, g }

// NextStamp is nextStamp (solver.go).
var NextStamp = nextStamp

// StampGens returns the literal and LBD stamp generations.
func StampGens(s *Solver) (add, lbd uint32) { return s.addGen, s.lbdGen }

// StateDiff describes the first difference between the internal states of
// two solvers, or returns "" when they agree on everything search reads:
// ok, every literal's implication list and watch list in order, the arena
// word for word, the clause references, the trail and the propagation
// head, and what branching reads — the VSIDS heap's order and keys, the
// activities (bit for bit), the activity increment and the saved phases.
// Where a list's window sits in its backing is storage, not state, and is
// not compared.
func StateDiff(a, b *Solver) string {
	switch {
	case a.ok != b.ok:
		return fmt.Sprintf("ok: %v vs %v", a.ok, b.ok)
	case a.NumVars() != b.NumVars():
		return fmt.Sprintf("variables: %d vs %d", a.NumVars(), b.NumVars())
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
	case !slices.Equal(a.order.heap, b.order.heap):
		return fmt.Sprintf("heap order: %v vs %v", a.order.heap, b.order.heap)
	case !bitEqual(a.order.keys, b.order.keys):
		return fmt.Sprintf("heap keys: %v vs %v", a.order.keys, b.order.keys)
	case !bitEqual(a.activity, b.activity):
		return fmt.Sprintf("activities: %v vs %v", a.activity, b.activity)
	case a.varInc != b.varInc:
		return fmt.Sprintf("activity increment: %v vs %v", a.varInc, b.varInc)
	case !slices.Equal(a.phase, b.phase):
		return fmt.Sprintf("saved phases: %v vs %v", a.phase, b.phase)
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

// bitEqual reports whether x and y hold the same float64 bit patterns.
func bitEqual(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}
