package arc_test

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/topology"
)

// ruleInstances is the reference population (instances) over the whole
// 96-network corpus, plus Figure 2a with a static route that backs a
// filtered process, Figure 2a with an inbound ACL on a source attachment,
// dc-256 seed 7 and ten broken k=4 fat-trees (seeds
// 2-11, as cprgen -break 3 makes them); -short keeps 24 corpus networks
// and two fat-trees, and drops dc-256.
func ruleInstances(t *testing.T) []refInstance {
	t.Helper()
	networks, fatTrees := 96, 10
	if testing.Short() {
		networks, fatTrees = 24, 2
	}
	insts := instances(t, networks)
	// A filters T, but its static route for T keeps the FIB authoritative:
	// the static route backs the intra-device edges into A's OSPF process,
	// A's self edge and a BGP process's redistribution from it.
	over := topology.Figure2a()
	a := over.Device("A")
	a.AddStatic(over.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	ospf := a.Process(topology.OSPF, 10)
	ospf.RouteFilters = append(ospf.RouteFilters, over.Subnet("T").Prefix)
	a.AddProcess(topology.BGP, 65000).RedistributesFrom = []*topology.Process{ospf}
	insts = append(insts, refInstance{"figure2a-static-over-filter", over, figure2aPolicies(over)[:3]})
	// A's host-facing interface to R drops R->T on the way in: a list that
	// guards no slot, only R's source attachment, so it blocks one class.
	src := topology.Figure2a()
	a = src.Device("A")
	a.AddACL("NO-R-T").Entries = []topology.ACLEntry{
		{Permit: false, Src: src.Subnet("R").Prefix, Dst: src.Subnet("T").Prefix},
		{Permit: true},
	}
	a.Interface("Ethernet0/3").InACL = "NO-R-T"
	insts = append(insts, refInstance{"figure2a-source-acl", src, figure2aPolicies(src)[:3]})
	if !testing.Short() {
		dc, err := generate.Preset("dc-256", 7)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, refInstance{"dc-256", dc.Network, dc.Policies})
	}
	for seed := int64(12 - fatTrees); seed <= 11; seed++ {
		ft, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 3, PC2: 3, PC3: 3, PC4: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft, seed+1, 3); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, refInstance{fmt.Sprintf("fattree-k4-seed%d", seed), ft.Network, ft.Policies})
	}
	return insts
}

// TestEvaluatedRowsMatchRule pins the abstraction's soundness condition,
// both halves. Evaluated: every dETG and tcETG row of the HARC's own
// state, derived from the constructs harc read off the configuration, is
// the presence read straight off the configuration (PresentDst,
// PresentTC), slot by slot. Repaired: after each repair, per destination
// and over all classes, every presence row of the repaired state is what
// harc derives from its own construct rows (harc.HARC.ValidateState) —
// which holds the encoder's CNF copy of the rule, its hierarchy
// constraints, to the derivation. Every instance is repaired per
// destination; Figure 2a and the fat-trees of seeds 2 and 11 over all
// classes too (the corpus's take up to 5 s each that way).
func TestEvaluatedRowsMatchRule(t *testing.T) {
	pairs := 0
	for _, inst := range ruleInstances(t) {
		h := harc.BuildLite(inst.net, inst.net.TrafficClasses())
		st := harc.StateOf(h)
		for r, dst := range h.Dsts {
			for id, s := range h.Slots {
				if want := s.ApplicableDst(dst) && s.PresentDst(dst); st.Dst[r].Has(id) != want {
					t.Fatalf("%s: dETG(%s) slot %s: row has %v, the configuration says %v", inst.name, dst.Name, s.Key(), !want, want)
				}
			}
			pairs += len(h.Slots)
		}
		for r, tc := range h.TCs {
			for id, s := range h.Slots {
				if want := s.ApplicableTC(tc) && s.PresentTC(tc); st.TC[r].Has(id) != want {
					t.Fatalf("%s: tcETG(%s) slot %s: row has %v, the configuration says %v", inst.name, tc, s.Key(), !want, want)
				}
			}
		}

		grans := []core.Granularity{core.PerDst}
		switch inst.name {
		case "figure2a", "fattree-k4-seed2", "fattree-k4-seed11":
			grans = append(grans, core.AllTCs)
		}
		for _, g := range grans {
			opts := core.DefaultOptions()
			opts.Granularity = g
			rh := harc.Build(inst.net)
			res, err := core.Repair(rh, inst.policies, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", inst.name, g, err)
			}
			if err := rh.ValidateState(res.State); err != nil {
				t.Errorf("%s %v: the repaired state is not closed under the rule: %v", inst.name, g, err)
			}
		}
	}
	t.Logf("%d (destination, slot) pairs", pairs)
}
