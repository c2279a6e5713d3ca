package policy

import (
	"repro/internal/arc"
	"repro/internal/harc"
	"repro/internal/topology"
)

// StateChecker verifies a batch of policies against one explicit HARC
// state, caching the per-traffic-class ETGs it materializes: checking
// several policies on the same class builds each graph once instead of
// once per policy. PC4 routing graphs are cached the same way. A StateChecker is not safe for concurrent use; parallel
// verifiers each keep their own.
type StateChecker struct {
	h       *harc.HARC
	st      *harc.State
	tc      map[string]*arc.ETG
	routing map[string]*arc.ETG
}

// NewStateChecker returns a checker over the given state. The state is
// read, never written, and must not be mutated while the checker lives
// (cached graphs would go stale).
func NewStateChecker(h *harc.HARC, st *harc.State) *StateChecker {
	return &StateChecker{h: h, st: st, tc: make(map[string]*arc.ETG)}
}

func (c *StateChecker) etg(tc topology.TrafficClass) *arc.ETG {
	key := tc.Key()
	if e, ok := c.tc[key]; ok {
		return e
	}
	e := harc.BuildTCETGFromState(c.h, c.st, tc)
	c.tc[key] = e
	return e
}

func (c *StateChecker) routingETG(tc topology.TrafficClass) *arc.ETG {
	key := tc.Key()
	if e, ok := c.routing[key]; ok {
		return e
	}
	if c.routing == nil {
		c.routing = make(map[string]*arc.ETG)
	}
	e := harc.BuildRoutingETGFromState(c.h, c.st, tc)
	c.routing[key] = e
	return e
}

// Check verifies one policy against the checker's state.
func (c *StateChecker) Check(p Policy) bool {
	if p.Kind == Isolated {
		return isolatedInState(c.st, p)
	}
	etg := c.etg(p.TC)
	if p.Kind == PrimaryPath {
		return arc.VerifyPrimaryPath(etg, c.routingETG(p.TC), p.Path)
	}
	return checkETG(etg, c.h.Network, p)
}
