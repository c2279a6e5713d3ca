package core

import (
	"testing"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// isolationPolicy builds "S->T isolated from R->U" on Figure 2a.
func isolationPolicy(n *topology.Network) policy.Policy {
	return policy.Policy{
		Kind: policy.Isolated,
		TC:   topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")},
		TC2:  topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("U")},
	}
}

func TestIsolationViolatedInitially(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := isolationPolicy(n)
	if policy.Check(h, p) {
		t.Fatal("S->T and R->U share edges initially; isolation should be violated")
	}
}

func TestIsolationRepair(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := isolationPolicy(n)
	res, err := Repair(h, []policy.Policy{p}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("isolation repair unsolved: %+v", res.Stats)
	}
	if !policy.NewStateChecker(h, res.State).Check(p) {
		t.Fatal("repaired state still violates isolation")
	}
	if res.Changes == 0 {
		t.Error("isolation repair should require changes")
	}
	// Isolation couples destinations T and U: they must be solved in one
	// merged problem.
	if len(res.Stats) != 1 {
		t.Errorf("expected a single merged problem, got %d", len(res.Stats))
	}
}

func TestIsolationWithReachabilityConflict(t *testing.T) {
	// Both classes share the destination T and must stay reachable: every
	// path to T uses C's self edge, which both tcETGs would share, so no
	// repair can exist.
	n := topology.Figure2a()
	h := harc.Build(n)
	s, r, tt := n.Subnet("S"), n.Subnet("R"), n.Subnet("T")
	iso := policy.Policy{
		Kind: policy.Isolated,
		TC:   topology.TrafficClass{Src: s, Dst: tt},
		TC2:  topology.TrafficClass{Src: r, Dst: tt},
	}
	reach1 := policy.Policy{Kind: policy.KReachable, K: 1, TC: iso.TC}
	reach2 := policy.Policy{Kind: policy.KReachable, K: 1, TC: iso.TC2}
	res, err := Repair(h, []policy.Policy{iso, reach1, reach2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Error("same-destination isolation with reachability should be unsatisfiable")
	}
}

func TestIsolationAllTCsGranularity(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := isolationPolicy(n)
	opts := DefaultOptions()
	opts.Granularity = AllTCs
	res, err := Repair(h, []policy.Policy{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	if !policy.NewStateChecker(h, res.State).Check(p) {
		t.Fatal("repaired state violates isolation")
	}
}
