package policy

import (
	"repro/internal/arc"
	"repro/internal/harc"
)

// StateChecker verifies policies against one HARC state. It reads the
// state's rows in place: a class's tcETG is a view of its row and PC4's
// routing graph is laid from its destination's row, both weighted by the
// state's SlotCost (harc.BuildTCETGFromState, BuildRoutingETGFromState).
// Check reads the HARC's own state the same way. A StateChecker may be
// shared by concurrent verifiers; the state must not change while it is
// in use.
type StateChecker struct {
	h  *harc.HARC
	st *harc.State // nil: the HARC's own state
}

// NewStateChecker returns a checker over the given state, which it reads
// and never writes.
func NewStateChecker(h *harc.HARC, st *harc.State) *StateChecker {
	return &StateChecker{h: h, st: st}
}

// Check verifies one policy against the checker's state.
func (c *StateChecker) Check(p Policy) bool {
	etg := harc.BuildTCETGFromState(c.h, c.st, p.TC)
	switch p.Kind {
	case AlwaysBlocked:
		return arc.VerifyAlwaysBlocked(etg)
	case AlwaysWaypoint:
		return arc.VerifyAlwaysWaypoint(etg)
	case KReachable:
		return arc.VerifyKReachable(etg, c.h.Network, p.K)
	case PrimaryPath:
		// Route selection is ACL-blind, so the tcETG alone cannot decide
		// which path traffic takes.
		return arc.VerifyPrimaryPath(etg, harc.BuildRoutingETGFromState(c.h, c.st, p.TC), p.Path)
	case Isolated:
		// The classes share an edge iff their rows intersect (§5.1).
		return !etg.G.Live().Intersects(harc.BuildTCETGFromState(c.h, c.st, p.TC2).G.Live())
	}
	return false
}
