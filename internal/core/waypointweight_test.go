package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// TestWaypointWeightSteersRepair: with cheap waypoints (weight 1) the
// EP2+EP3 repair may place a firewall on A-C; with expensive waypoints
// the solver must find a middlebox-free repair if one exists, or pay up.
func TestWaypointWeightSteersRepair(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt := n.Subnet("S"), n.Subnet("T")
	ps := []policy.Policy{
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
	}

	cheap := DefaultOptions()
	resCheap, err := Repair(h, ps, cheap)
	if err != nil {
		t.Fatal(err)
	}
	if !resCheap.Solved {
		t.Fatalf("cheap: unsolved: %+v", resCheap.Stats)
	}

	costly := DefaultOptions()
	costly.WaypointWeight = 10
	resCostly, err := Repair(h, ps, costly)
	if err != nil {
		t.Fatal(err)
	}
	if !resCostly.Solved {
		t.Fatalf("costly: unsolved: %+v", resCostly.Stats)
	}
	for _, res := range []*Result{resCheap, resCostly} {
		if v := VerifyRepair(h, res.State, ps); len(v) != 0 {
			t.Fatalf("repair violates %v", v)
		}
	}
	// Both satisfy the spec; the weighted objective must not be worse
	// under the weighting it optimizes: evaluate both states under the
	// costly weighting.
	weigh := func(res *Result) int {
		orig := harc.StateOf(h)
		cost := 0
		bitset.EachDiff(orig.Waypoint, res.State.Waypoint, func(int) { cost += 10 })
		return cost + nonWaypointChanges(h, orig, res.State)
	}
	if weigh(resCostly) > weigh(resCheap) {
		t.Errorf("costly-weighted repair (%d) should not lose to cheap repair (%d) under its own objective",
			weigh(resCostly), weigh(resCheap))
	}
}

// nonWaypointChanges approximates the line-level change count of a state
// (construct diffs, excluding waypoints).
func nonWaypointChanges(h *harc.HARC, a, b *harc.State) int {
	n := 0
	count := func(int) { n++ }
	for r := range a.RouteFilter {
		bitset.EachDiff(a.RouteFilter[r], b.RouteFilter[r], count)
		bitset.EachDiff(a.Static[r], b.Static[r], count)
	}
	bitset.EachDiff(a.All, b.All, count)
	for r := range a.TC {
		bitset.EachDiff(a.TC[r], b.TC[r], count)
	}
	for k, v := range a.Cost {
		if b.Cost[k] != v {
			n++
		}
	}
	return n
}
