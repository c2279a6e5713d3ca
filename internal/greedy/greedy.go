// Package greedy implements the polynomial-time graph-algorithm repairs
// the paper considers before rejecting them for the general problem (§5):
// min-cut ACL insertion for PC1, waypoint placement on cut edges for PC2,
// and max-flow path addition via static routes for PC3.
//
// Each violated policy is repaired in isolation, exactly the limitation
// the paper identifies: the result is not guaranteed minimal, repairs of
// one policy can break another (no cross-policy or cross-traffic-class
// reasoning), and PC4 (inverse shortest paths) is not handled at all.
// It exists as the ablation baseline for CPR's MaxSMT formulation; see
// the Ablation benchmarks and tests.
package greedy

import (
	"fmt"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// Result reports a greedy repair attempt.
type Result struct {
	State *harc.State
	// Changes counts construct edits (comparable to core.Result.Changes).
	Changes int
	// Clean reports whether, after repairing each violated policy in
	// isolation, the full specification holds — frequently false, which
	// is the point of the baseline.
	Clean bool
	// StillViolated lists policies violated by the final state.
	StillViolated []policy.Policy
}

// Repair applies per-policy graph repairs in specification order.
// PrimaryPath policies yield an error (the inverse-shortest-path problem
// is out of the baseline's scope, §5).
func Repair(h *harc.HARC, policies []policy.Policy) (*Result, error) {
	st := harc.StateOf(h)
	changes := 0
	for _, p := range policies {
		if policy.CheckState(h, st, p) {
			continue
		}
		var (
			n   int
			err error
		)
		switch p.Kind {
		case policy.AlwaysBlocked:
			n, err = repairPC1(h, st, p)
		case policy.AlwaysWaypoint:
			n, err = repairPC2(h, st, p)
		case policy.KReachable:
			n, err = repairPC3(h, st, p)
		default:
			return nil, fmt.Errorf("greedy: policy class %v is not supported by the graph-algorithm baseline", p.Kind)
		}
		if err != nil {
			return nil, err
		}
		changes += n
	}
	res := &Result{State: st, Changes: changes}
	for _, p := range policies {
		if !policy.CheckState(h, st, p) {
			res.StillViolated = append(res.StillViolated, p)
		}
	}
	res.Clean = len(res.StillViolated) == 0
	return res, nil
}

const bigCap = int64(1) << 40

// removableCap gives unit capacity to edges an ACL can remove and
// effectively infinite capacity to intra-device edges.
func removableCap(etg *arc.ETG) func(graph.E) int64 {
	return func(e graph.E) int64 {
		switch etg.Slot(e).Kind {
		case arc.SlotInterDevice, arc.SlotSource, arc.SlotDest:
			return 1
		}
		return bigCap
	}
}

// repairPC1 removes the tcETG's min-cut (over ACL-removable edges) at
// the traffic-class level: one ACL application per cut edge (§5's
// "compute the tcETG's min-cut and remove all edges in the min-cut").
func repairPC1(h *harc.HARC, st *harc.State, p policy.Policy) (int, error) {
	etg := harc.BuildTCETGFromState(h, st, p.TC)
	cut := etg.G.MinCut(etg.Src, etg.Dst, removableCap(etg))
	if len(cut) == 0 && etg.G.PathExists(etg.Src, etg.Dst) {
		return 0, fmt.Errorf("greedy: PC1 min-cut failed for %s", p.TC)
	}
	r := h.TCRow(p.TC)
	for _, e := range cut {
		st.SetTC(r, etg.Slot(e).ID, false)
	}
	return len(cut), nil
}

// repairPC2 adds waypoints on the min-cut of the waypoint-free subgraph
// (§5's "temporarily remove all waypoint vertices, compute the min-cut,
// and add waypoints on the edges in the min-cut").
func repairPC2(h *harc.HARC, st *harc.State, p policy.Policy) (int, error) {
	etg := harc.BuildTCETGFromState(h, st, p.TC)
	// Remove already-waypointed edges, then cut what remains.
	etg.EachSlot(func(s *arc.Slot) {
		if e := graph.E(s.ID); etg.WaypointEdge(e) {
			etg.G.RemoveEdge(e)
		}
	})
	// Only inter-device edges can host a middlebox.
	capOf := func(e graph.E) int64 {
		if etg.Slot(e).Kind == arc.SlotInterDevice {
			return 1
		}
		return bigCap
	}
	cut := etg.G.MinCut(etg.Src, etg.Dst, capOf)
	if len(cut) == 0 && etg.G.PathExists(etg.Src, etg.Dst) {
		return 0, fmt.Errorf("greedy: PC2 has no inter-device cut for %s", p.TC)
	}
	n := 0
	for _, e := range cut {
		s := etg.Slot(e)
		if s.Kind != arc.SlotInterDevice {
			return 0, fmt.Errorf("greedy: PC2 cut contains non-link edge %s", s.Key())
		}
		if !st.Waypoint.Has(s.LinkID) {
			st.SetWaypoint(s.LinkID, true)
			n++
		}
	}
	return n, nil
}

// repairPC3 builds the all-candidates tcETG, extracts K link-disjoint
// paths by max-flow, and materializes every missing edge (§5's "construct
// a tcETG containing all possible edges, compute the max-flow, and add
// the edges in the paths"). dETG-level additions become static routes,
// tcETG-level additions ACL removals.
func repairPC3(h *harc.HARC, st *harc.State, p policy.Policy) (int, error) {
	full := candidateETG(h, p.TC)
	capOf := func(e graph.E) int64 {
		if full.Slot(e).Kind == arc.SlotInterDevice {
			return 1
		}
		return bigCap
	}
	paths := full.G.DisjointPaths(full.Src, full.Dst, capOf)
	if len(paths) < p.K {
		return 0, fmt.Errorf("greedy: topology supports only %d disjoint paths for %s (need %d)", len(paths), p.TC, p.K)
	}
	changes := 0
	r, d := h.TCRow(p.TC), h.DstRow(p.TC.Dst)
	for _, path := range paths[:p.K] {
		for i := 0; i+1 < len(path); i++ {
			s := full.Slot(full.G.FindEdge(path[i], path[i+1]))
			if s.Kind != arc.SlotSource && !st.Dst[d].Has(s.ID) {
				st.SetDst(d, s.ID, true) // realized by a static route
				changes++
			}
			if !st.TC[r].Has(s.ID) {
				st.SetTC(r, s.ID, true) // realized by removing an ACL deny
				changes++
			}
		}
	}
	return changes, nil
}

// candidateETG builds the graph of every candidate slot for tc ("all
// possible edges"), ignoring current presence.
func candidateETG(h *harc.HARC, tc topology.TrafficClass) *arc.ETG {
	all := bitset.New(len(h.Slots))
	for id, s := range h.Slots {
		all.Put(id, s.ApplicableTC(tc))
	}
	return arc.NewETG(h.Table, all, h.Weights(func(*arc.Slot) int64 { return 1 }))
}
