package core

import (
	"testing"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
	"repro/internal/topology"
)

// figure2aPolicies returns EP1-EP4 from §2.2.
func figure2aPolicies(n *topology.Network) []policy.Policy {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	return []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}},
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
	}
}

func repairFigure2a(t *testing.T, opts Options) (*harc.HARC, []policy.Policy, *Result) {
	t.Helper()
	n := topology.Figure2a()
	h := harc.Build(n)
	policies := figure2aPolicies(n)
	res, err := Repair(h, policies, opts)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Solved {
		t.Fatalf("Repair unsolved: %+v", res.Stats)
	}
	return h, policies, res
}

func TestRepairFigure2aPerDst(t *testing.T) {
	h, policies, res := repairFigure2a(t, DefaultOptions())
	if v := VerifyRepair(h, res.State, policies); len(v) != 0 {
		t.Fatalf("repaired state still violates: %v", v)
	}
	// The paper's minimal repair (Figure 2d) needs a static route (one
	// dETG deviation), one cost adjustment, and one waypoint: 3 modeled
	// changes. Anything at or under 4 is acceptable minimality here; more
	// indicates a broken encoding.
	if res.Changes > 4 {
		t.Errorf("changes = %d, want <= 4 (Figure 2d scale)", res.Changes)
	}
	if res.Changes == 0 {
		t.Error("expected a nonzero repair")
	}
}

func TestRepairFigure2aAllTCs(t *testing.T) {
	opts := DefaultOptions()
	opts.Granularity = AllTCs
	h, policies, res := repairFigure2a(t, opts)
	if v := VerifyRepair(h, res.State, policies); len(v) != 0 {
		t.Fatalf("repaired state still violates: %v", v)
	}
	if res.Changes > 4 {
		t.Errorf("changes = %d, want <= 4", res.Changes)
	}
}

func TestRepairMinimalityAcrossGranularities(t *testing.T) {
	// Figure 9's claim: per-dst repairs change the same number of lines
	// as all-tcs repairs.
	_, _, resPer := repairFigure2a(t, DefaultOptions())
	opts := DefaultOptions()
	opts.Granularity = AllTCs
	_, _, resAll := repairFigure2a(t, opts)
	if resPer.Changes != resAll.Changes {
		t.Errorf("per-dst changes %d != all-tcs changes %d", resPer.Changes, resAll.Changes)
	}
}

func TestRepairLinearReferenceAgrees(t *testing.T) {
	_, _, resO := repairFigure2a(t, DefaultOptions())
	optsL := DefaultOptions()
	optsL.Algorithm = maxsat.LinearDescent
	h, policies, resL := repairFigure2a(t, optsL)
	if resO.Changes != resL.Changes {
		t.Errorf("oll cost %d != linear cost %d", resO.Changes, resL.Changes)
	}
	if v := VerifyRepair(h, resL.State, policies); len(v) != 0 {
		t.Fatalf("linear repaired state violates: %v", v)
	}
}

func TestRepairSkipsSatisfiedDestinations(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	policies := figure2aPolicies(n)
	res, err := Repair(h, policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// EP1 (dst U) is satisfied: no problem for U should be formulated.
	for _, st := range res.Stats {
		if st.Label == "U" {
			t.Errorf("destination U should have been skipped: %+v", st)
		}
	}
	// Only the PC4-merged problem (destination T carries PC4) remains.
	if len(res.Stats) != 1 || res.Stats[0].Label != "pc4-merged" {
		t.Errorf("stats = %+v, want single pc4-merged problem", res.Stats)
	}
}

func TestRepairNothingToDo(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	// Only the satisfied policies.
	policies := figure2aPolicies(n)
	satisfied := []policy.Policy{policies[0]} // EP1 holds
	res, err := Repair(h, satisfied, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Changes != 0 || len(res.Stats) != 0 {
		t.Errorf("no-op repair: %+v", res)
	}
	// The state must be unchanged.
	if !harc.StateOf(h).All.Equal(res.State.All) {
		t.Error("aETG changed in no-op repair")
	}
}

func TestRepairPC1AddsBlock(t *testing.T) {
	// Require S->T always blocked (currently reachable): the repair must
	// cut every path.
	n := topology.Figure2a()
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}}
	res, err := Repair(h, []policy.Policy{p}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	if v := VerifyRepair(h, res.State, []policy.Policy{p}); len(v) != 0 {
		t.Fatalf("still violates: %v", v)
	}
	// Minimal block: one change (ACL on a single cut edge or the source
	// attachment).
	if res.Changes != 1 {
		t.Errorf("changes = %d, want 1", res.Changes)
	}
}

func TestRepairPC1DoesNotBreakSiblings(t *testing.T) {
	// Block S->T while R->T must stay reachable: the repair cannot just
	// kill the T routes.
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("R")
	ps := []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 1, TC: topology.TrafficClass{Src: r, Dst: tt}},
	}
	res, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	if v := VerifyRepair(h, res.State, ps); len(v) != 0 {
		t.Fatalf("still violates: %v", v)
	}
}

func TestRepairPC3ViaStaticOrAdjacency(t *testing.T) {
	// Only EP3 (no PC4 constraint): per-dst mode must still find a repair
	// with the aETG frozen, via a static-backed dETG edge.
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt := n.Subnet("S"), n.Subnet("T")
	ps := []policy.Policy{{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}}}
	res, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	if v := VerifyRepair(h, res.State, ps); len(v) != 0 {
		t.Fatalf("still violates: %v", v)
	}
	// The aETG must be untouched in per-dst mode.
	if !harc.StateOf(h).All.Equal(res.State.All) {
		t.Error("per-dst repair changed the aETG")
	}
	// One dETG deviation (static route) suffices.
	if res.Changes != 1 {
		t.Errorf("changes = %d, want 1 (single static route)", res.Changes)
	}
}

func TestRepairPC4CostOnly(t *testing.T) {
	// Break EP4 by making A-C an adjacency with low cost, then ask only
	// for the primary path: the repair should adjust one cost.
	n := topology.Figure2a()
	delete(n.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	h := harc.Build(n)
	r, tt := n.Subnet("R"), n.Subnet("T")
	ps := []policy.Policy{{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}}}
	if len(policy.Violations(h, ps)) != 1 {
		t.Fatal("EP4 should be violated after enabling A-C")
	}
	res, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	if v := VerifyRepair(h, res.State, ps); len(v) != 0 {
		t.Fatalf("still violates: %v", v)
	}
	// A single change suffices: either a cost adjustment (Figure 2c
	// style) or a route filter removing the A->C edge for destination T.
	if res.Changes != 1 {
		t.Errorf("changes = %d, want 1", res.Changes)
	}
	costChanged := false
	orig := harc.StateOf(h)
	for k, v := range orig.Cost {
		if res.State.Cost[k] != v {
			costChanged = true
		}
	}
	edgeRemoved := !orig.DstBits(tt).Equal(res.State.DstBits(tt))
	tc := topology.TrafficClass{Src: r, Dst: tt}
	aclChanged := !orig.TCBits(tc).Equal(res.State.TCBits(tc))
	if !costChanged && !edgeRemoved && !aclChanged {
		t.Error("no cost, dETG edge, or ACL changed, yet EP4 was violated")
	}
}

func TestRepairUnsatisfiableSpec(t *testing.T) {
	// S->T simultaneously always-blocked and always-reachable: no repair
	// exists.
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt := n.Subnet("S"), n.Subnet("T")
	tc := topology.TrafficClass{Src: s, Dst: tt}
	ps := []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: tc},
		{Kind: policy.KReachable, K: 1, TC: tc},
	}
	res, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Error("contradictory spec should be unsolvable")
	}
}

func TestRepairParallelMatchesSequential(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	// Violate policies for two destinations: R->U must become reachable
	// (the ACL currently blocks it) and S->T must become 1-failure
	// tolerant.
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	ps := []policy.Policy{
		{Kind: policy.KReachable, K: 1, TC: topology.TrafficClass{Src: r, Dst: u}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
	}
	seq, err := Repair(h, ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = 4
	par, err := Repair(h, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Changes != par.Changes {
		t.Errorf("sequential changes %d != parallel changes %d", seq.Changes, par.Changes)
	}
	if !par.Solved {
		t.Error("parallel repair unsolved")
	}
	if v := VerifyRepair(h, par.State, ps); len(v) != 0 {
		t.Errorf("parallel repaired state violates: %v", v)
	}
	if len(seq.Stats) != 2 || len(par.Stats) != 2 {
		t.Errorf("expected 2 problems, got %d and %d", len(seq.Stats), len(par.Stats))
	}
}

func TestRepairedStateHierarchyValid(t *testing.T) {
	h, _, res := repairFigure2a(t, DefaultOptions())
	if err := h.ValidateState(res.State); err != nil {
		t.Errorf("repaired state violates HARC hierarchy: %v", err)
	}
}

func TestGranularityString(t *testing.T) {
	if AllTCs.String() != "maxsmt-all-tcs" || PerDst.String() != "maxsmt-per-dst" {
		t.Error("Granularity strings wrong")
	}
}
