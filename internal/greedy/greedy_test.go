package greedy_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

func tcOf(n *topology.Network, src, dst string) topology.TrafficClass {
	return topology.TrafficClass{Src: n.Subnet(src), Dst: n.Subnet(dst)}
}

func TestGreedyPC1(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.AlwaysBlocked, TC: tcOf(n, "S", "T")}
	res, err := greedy.Repair(h, []policy.Policy{p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Fatalf("greedy PC1 failed: still violated %v", res.StillViolated)
	}
	if res.Changes == 0 {
		t.Error("expected changes")
	}
}

func TestGreedyPC2(t *testing.T) {
	n := topology.Figure2a()
	n.Link("B", "C").Waypoint = false // break EP2
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.AlwaysWaypoint, TC: tcOf(n, "S", "T")}
	res, err := greedy.Repair(h, []policy.Policy{p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Fatalf("greedy PC2 failed: %v", res.StillViolated)
	}
	// A waypoint must have been added somewhere.
	if res.State.Waypoint.Count() == 0 {
		t.Error("no waypoint added")
	}
}

func TestGreedyPC3(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.KReachable, K: 2, TC: tcOf(n, "S", "T")}
	res, err := greedy.Repair(h, []policy.Policy{p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Fatalf("greedy PC3 failed: %v", res.StillViolated)
	}
}

func TestGreedyPC4Unsupported(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").Interface("Ethernet0/1").Cost = 9 // break EP4 somehow irrelevant
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.PrimaryPath, Path: []string{"A", "C"}, TC: tcOf(n, "R", "T")}
	if _, err := greedy.Repair(h, []policy.Policy{p}); err == nil {
		t.Error("PC4 should be unsupported by the greedy baseline")
	}
}

// TestGreedyCrossPolicyBreakage demonstrates §2.2's challenge #1: fixing
// EP3 greedily (adding paths) can violate EP2 (the new path bypasses the
// firewall), which the greedy baseline does not notice until the end.
func TestGreedyCrossPolicyBreakage(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ps := []policy.Policy{
		{Kind: policy.AlwaysWaypoint, TC: tcOf(n, "S", "T")},   // EP2 (holds)
		{Kind: policy.KReachable, K: 2, TC: tcOf(n, "S", "T")}, // EP3 (violated)
		{Kind: policy.AlwaysBlocked, TC: tcOf(n, "S", "U")},    // EP1 (holds)
	}
	res, err := greedy.Repair(h, ps)
	if err != nil {
		t.Fatal(err)
	}
	// The greedy fix for EP3 adds the A->C path without a waypoint,
	// breaking EP2 — unless it got lucky with path selection. Either way
	// CPR must do at least as well on change count when both succeed.
	cprRes, err := core.Repair(h, ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !cprRes.Solved {
		t.Fatal("CPR should solve this specification")
	}
	if bad := core.VerifyRepair(h, cprRes.State, ps); len(bad) != 0 {
		t.Fatalf("CPR repair invalid: %v", bad)
	}
	if res.Clean && res.Changes < cprRes.Changes {
		t.Errorf("greedy clean with %d changes but CPR needed %d — CPR should be minimal",
			res.Changes, cprRes.Changes)
	}
	t.Logf("greedy: clean=%v changes=%d stillViolated=%v; CPR: changes=%d",
		res.Clean, res.Changes, res.StillViolated, cprRes.Changes)
}

func TestGreedySatisfiedSpecIsNoOp(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ps := []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: tcOf(n, "S", "U")},
		{Kind: policy.AlwaysWaypoint, TC: tcOf(n, "S", "T")},
	}
	res, err := greedy.Repair(h, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Changes != 0 {
		t.Errorf("satisfied spec should be a no-op: %+v", res)
	}
}

func TestGreedyImpossiblePC3(t *testing.T) {
	// Figure2a has at most 2 disjoint paths between S and T; asking for 3
	// must fail loudly.
	n := topology.Figure2a()
	h := harc.Build(n)
	p := policy.Policy{Kind: policy.KReachable, K: 3, TC: tcOf(n, "S", "T")}
	if _, err := greedy.Repair(h, []policy.Policy{p}); err == nil {
		t.Error("impossible PC3 should error")
	}
}

// TestGreedyNeverBeatsOptimal sweeps generated data-center instances
// (PC1/PC3 specifications — the classes the baseline supports) and checks
// the defining property of the MaxSMT formulation: whenever the greedy
// baseline produces a repair that satisfies the whole specification, its
// change count is at least the optimum found at all-tcs granularity.
func TestGreedyNeverBeatsOptimal(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Granularity = core.AllTCs
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := generate.DataCenter(generate.DCOptions{
			Name: "greedy-vs-opt", Routers: 6, Subnets: 8,
			BlockedFrac: 0.4, FullyBlockedDsts: 1, Violations: 3, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := inst.Harc()
		g, err := greedy.Repair(h, inst.Policies)
		if err != nil {
			t.Fatalf("seed %d: greedy: %v", seed, err)
		}
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil {
			t.Fatalf("seed %d: core: %v", seed, err)
		}
		if !res.Solved {
			t.Fatalf("seed %d: all-tcs repair did not solve", seed)
		}
		if bad := core.VerifyRepair(h, res.State, inst.Policies); len(bad) != 0 {
			t.Fatalf("seed %d: optimal repair leaves violations: %v", seed, bad)
		}
		if g.Clean && g.Changes < res.Changes {
			t.Errorf("seed %d: greedy clean with %d changes, below the optimum %d",
				seed, g.Changes, res.Changes)
		}
		t.Logf("seed %d: greedy clean=%v changes=%d; optimal changes=%d",
			seed, g.Clean, g.Changes, res.Changes)
	}
}
