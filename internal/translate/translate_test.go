package translate

import (
	"net/netip"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// parseFigure2a returns the configs and extracted network.
func parseFigure2a(t *testing.T) (map[string]*config.Config, *topology.Network) {
	t.Helper()
	configs, err := config.ParseFigure2a()
	if err != nil {
		t.Fatal(err)
	}
	cfgMap := map[string]*config.Config{}
	for _, c := range configs {
		cfgMap[c.Hostname] = c
	}
	n, err := config.Extract(configs)
	if err != nil {
		t.Fatal(err)
	}
	return cfgMap, n
}

func figure2aPolicies(n *topology.Network) []policy.Policy {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	return []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}},
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
	}
}

// TestEndToEndRepairFigure2a is the full pipeline test: parse configs,
// repair, translate, re-parse the patched configs, and verify every
// policy on the rebuilt network.
func TestEndToEndRepairFigure2a(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	policies := figure2aPolicies(n)
	if len(policy.Violations(h, policies)) != 1 {
		t.Fatal("expected exactly EP3 violated")
	}
	res, err := core.Repair(h, policies, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %+v", res.Stats)
	}
	orig := harc.StateOf(h)
	plan, err := Translate(h, orig, res.State, cfgs)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if plan.NumLines() == 0 {
		t.Fatal("repair should change at least one line")
	}
	if plan.NumLines() > 4 {
		t.Errorf("plan has %d lines, expected a small repair:\n%s", plan.NumLines(), plan)
	}
	// The patched configs must re-parse and satisfy every policy.
	var rebuilt []*config.Config
	for name, c := range cfgs {
		rc, err := config.Parse(name, c.Print())
		if err != nil {
			t.Fatalf("patched config %s does not re-parse: %v\n%s", name, err, c.Print())
		}
		rebuilt = append(rebuilt, rc)
	}
	n2, err := config.Extract(rebuilt)
	if err != nil {
		t.Fatalf("Extract after patching: %v", err)
	}
	h2 := harc.Build(n2)
	// Policies reference subnets of the old network; remap.
	policies2 := figure2aPolicies(n2)
	if v := policy.Violations(h2, policies2); len(v) != 0 {
		t.Errorf("rebuilt network still violates: %v\nplan:\n%s", v, plan)
	}
}

func TestTable3StaticRouteAddition(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	// Add the A->C edge for destination T as a static route (Figure 2d).
	var slotKey string
	for _, s := range h.Slots {
		if s.FromProc != nil && s.ToProc != nil &&
			s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" &&
			s.Kind.String() == "inter" {
			slotKey = s.Key()
		}
	}
	setDst(h, rep, "T", slotKey, true)
	rep.SetStatic(h.DstRow(h.Network.Subnet("T")), h.SlotID(slotKey), true)
	// Children follow: the new edge appears in every tcETG toward T
	// (destination-based routing, no ACLs added).
	for _, tc := range h.TCs {
		if tc.Dst.Name == "T" {
			rep.SetTC(h.TCRow(tc), h.SlotID(slotKey), true)
		}
	}
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLines() != 1 {
		t.Fatalf("expected 1 line (static route), got %d:\n%s", plan.NumLines(), plan)
	}
	a := cfgs["A"]
	if len(a.Statics) != 1 {
		t.Fatalf("static route not added to A: %+v", a.Statics)
	}
	if a.Statics[0].Prefix.String() != "10.20.0.0/16" {
		t.Errorf("static prefix %s", a.Statics[0].Prefix)
	}
	if a.Statics[0].NextHop != netip.MustParseAddr("10.0.2.3") {
		t.Errorf("static next hop %s", a.Statics[0].NextHop)
	}
}

func TestTable3StaticRouteRemoval(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	// Install a static route first.
	cfgs["A"].AddStaticRoute(netip.MustParsePrefix("10.20.0.0/16"), netip.MustParseAddr("10.0.2.3"), 3)
	var rebuilt []*config.Config
	for name, c := range cfgs {
		rc, err := config.Parse(name, c.Print())
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, rc)
		cfgs[name] = rc
	}
	n2, err := config.Extract(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	n = n2
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	for _, s := range h.Slots {
		if s.Kind.String() == "inter" && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" {
			if !orig.DstBits(h.Network.Subnet("T")).Has(s.ID) {
				t.Fatal("static-backed edge should be present initially")
			}
			setDst(h, rep, "T", s.Key(), false)
			rep.SetStatic(h.DstRow(h.Network.Subnet("T")), s.ID, false)
		}
	}
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLines() != 1 {
		t.Fatalf("expected 1 removed line, got %d:\n%s", plan.NumLines(), plan)
	}
	if len(cfgs["A"].Statics) != 0 {
		t.Error("static route not removed")
	}
}

func TestTable3ACLChanges(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	s, u := n.Subnet("S"), n.Subnet("U")
	tcSU := topology.TrafficClass{Src: s, Dst: u}
	// Unblock S->U: set the A->B edge present in the tcETG (it is present
	// in the dETG).
	for _, sl := range h.Slots {
		if sl.Kind.String() == "inter" && sl.FromProc.Device.Name == "A" && sl.ToProc.Device.Name == "B" {
			rep.SetTC(h.TCRow(tcSU), h.SlotID(sl.Key()), true)
		}
	}
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLines() != 1 {
		t.Fatalf("expected 1 ACL line, got %d:\n%s", plan.NumLines(), plan)
	}
	// The ACL on B must now permit S->U.
	acl := cfgs["B"].ACL("BLOCK-U")
	if acl == nil {
		t.Fatal("BLOCK-U gone")
	}
	if !acl.Entries[0].Permit || acl.Entries[0].Src != s.Prefix || acl.Entries[0].Dst != u.Prefix {
		t.Errorf("expected prepended permit for S->U, got %+v", acl.Entries[0])
	}
}

func TestTable3ACLAddition(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	s, tt := n.Subnet("S"), n.Subnet("T")
	tcST := topology.TrafficClass{Src: s, Dst: tt}
	// Block S->T on the B->C hop (tcETG-only removal).
	for _, sl := range h.Slots {
		if sl.Kind.String() == "inter" && sl.FromProc.Device.Name == "B" && sl.ToProc.Device.Name == "C" {
			rep.SetTC(h.TCRow(tcST), h.SlotID(sl.Key()), false)
		}
	}
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// C has no in-ACL on its B-facing interface: creating one costs 3
	// lines (deny + permit-any + access-group).
	if plan.NumLines() != 3 {
		t.Fatalf("expected 3 lines for fresh ACL, got %d:\n%s", plan.NumLines(), plan)
	}
}

func TestTable3RouteFilter(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	// Filter destination U on C's process: remove C's self edge in
	// dETG(U) (and consequently in tcETGs toward U).
	selfKey := "self:C:ospf10"
	if !orig.DstBits(h.Network.Subnet("U")).Has(h.SlotID(selfKey)) {
		t.Fatal("self edge should be present initially")
	}
	// A route filter on C for U removes C's self edge and every edge
	// toward C (C no longer advertises U).
	var removed []string
	removed = append(removed, selfKey)
	for _, s := range h.Slots {
		if s.Kind.String() == "inter" && s.ToProc.Device.Name == "C" {
			removed = append(removed, s.Key())
		}
	}
	for _, key := range removed {
		setDst(h, rep, "U", key, false)
		for _, tc := range h.TCs {
			if tc.Dst.Name == "U" {
				rep.SetTC(h.TCRow(tc), h.SlotID(key), false)
			}
		}
	}
	rep.SetRouteFilter(h.DstRow(h.Network.Subnet("U")), procID(h, "C:ospf10"), true)
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLines() != 1 {
		t.Fatalf("expected 1 distribute-list line, got %d:\n%s", plan.NumLines(), plan)
	}
	r := cfgs["C"].Router(topology.OSPF, 10)
	if len(r.DistributeListIn) != 1 || r.DistributeListIn[0] != n.Subnet("U").Prefix {
		t.Errorf("distribute-list not added: %v", r.DistributeListIn)
	}
}

func TestTable3AdjacencyEnableDisable(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	// Enable the A-C adjacency (both directions).
	for _, s := range h.Slots {
		if s.Kind.String() != "inter" {
			continue
		}
		devs := s.FromProc.Device.Name + s.ToProc.Device.Name
		if devs == "AC" || devs == "CA" {
			rep.SetAll(h.SlotID(s.Key()), true)
			for _, d := range []string{"T", "U", "R", "S"} {
				setDst(h, rep, d, s.Key(), true)
			}
			for _, tc := range h.TCs {
				rep.SetTC(h.TCRow(tc), h.SlotID(s.Key()), true)
			}
		}
	}
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// Only C's passive-interface line blocks the adjacency: 1 line.
	if plan.NumLines() != 1 {
		t.Fatalf("expected 1 line (remove passive), got %d:\n%s", plan.NumLines(), plan)
	}
	// Now disable the A-B adjacency on a fresh copy.
	cfgs2, n2 := parseFigure2a(t)
	h2 := harc.Build(n2)
	orig2 := harc.StateOf(h2)
	rep2 := orig2.Clone()
	for _, s := range h2.Slots {
		if s.Kind.String() != "inter" {
			continue
		}
		devs := s.FromProc.Device.Name + s.ToProc.Device.Name
		if devs == "AB" || devs == "BA" {
			rep2.SetAll(h2.SlotID(s.Key()), false)
			for _, d := range []string{"T", "U", "R", "S"} {
				setDst(h2, rep2, d, s.Key(), false)
			}
			for _, tc := range h2.TCs {
				rep2.SetTC(h2.TCRow(tc), h2.SlotID(s.Key()), false)
			}
		}
	}
	plan2, err := Translate(h2, orig2, rep2, cfgs2)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.NumLines() != 1 {
		t.Fatalf("expected 1 line (add passive), got %d:\n%s", plan2.NumLines(), plan2)
	}
}

func TestWaypointChangeTracked(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	rep.SetWaypoint(linkID(h, "A-C"), true)
	plan, err := Translate(h, orig, rep, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waypoints) != 1 || !plan.Waypoints[0].Add || plan.Waypoints[0].Link != "A-C" {
		t.Fatalf("waypoint change not tracked: %+v", plan.Waypoints)
	}
	if plan.NumLines() != 0 {
		t.Errorf("waypoints must not count as config lines, got %d", plan.NumLines())
	}
	// The config marker must be set so re-extraction sees the middlebox.
	found := false
	for _, is := range cfgs["A"].Interfaces {
		if is.Waypoint {
			found = true
		}
	}
	for _, is := range cfgs["C"].Interfaces {
		if is.Waypoint {
			found = true
		}
	}
	if !found {
		t.Error("waypoint marker not applied to any config")
	}
}

func TestImpactedTCs(t *testing.T) {
	_, n := parseFigure2a(t)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	// Change only the S->U tcETG.
	tcSU := topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("U")}
	for _, s := range h.Slots {
		if s.Kind.String() == "inter" && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "B" {
			rep.SetTC(h.TCRow(tcSU), h.SlotID(s.Key()), true)
		}
	}
	impacted := ImpactedTCs(h, orig, rep)
	if len(impacted) != 1 || impacted[0].Key() != tcSU.Key() {
		t.Fatalf("impacted = %v, want just S->U", impacted)
	}
	// A cost change impacts every class whose ETG uses the interface.
	rep2 := orig.Clone()
	rep2.Cost["B/Ethernet0/1"] = 9
	impacted2 := ImpactedTCs(h, orig, rep2)
	if len(impacted2) == 0 {
		t.Fatal("cost change should impact classes using B->A")
	}
	for _, tc := range impacted2 {
		if tc.Dst.Name == "U" && tc.Src.Name == "T" {
			return // classes through B->A are impacted, as expected
		}
	}
}

func TestCloneConfigsIndependent(t *testing.T) {
	cfgs, _ := parseFigure2a(t)
	clone, err := CloneConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	clone["A"].AddStaticRoute(netip.MustParsePrefix("10.20.0.0/16"), netip.MustParseAddr("10.0.2.3"), 3)
	if len(cfgs["A"].Statics) != 0 {
		t.Error("mutating clone affected original")
	}
}

func TestTranslateMissingConfig(t *testing.T) {
	cfgs, n := parseFigure2a(t)
	delete(cfgs, "C")
	h := harc.Build(n)
	orig := harc.StateOf(h)
	rep := orig.Clone()
	// Force a change on C.
	setDst(h, rep, "U", "self:C:ospf10", false)
	for _, tc := range h.TCs {
		if tc.Dst.Name == "U" {
			rep.SetTC(h.TCRow(tc), h.SlotID("self:C:ospf10"), false)
		}
	}
	if _, err := Translate(h, orig, rep, cfgs); err == nil {
		t.Error("expected error for missing device config")
	}
}

// setDst sets the dETG bit of the slot with the given key for the named
// destination.
func setDst(h *harc.HARC, st *harc.State, dst, slotKey string, v bool) {
	st.SetDst(h.DstRow(h.Network.Subnet(dst)), h.SlotID(slotKey), v)
}

// procID and linkID resolve a process or link name to its id.
func procID(h *harc.HARC, name string) int {
	for id, p := range h.Procs {
		if p.Name() == name {
			return id
		}
	}
	return -1
}

func linkID(h *harc.HARC, name string) int {
	for id, l := range h.Links {
		if l.Name() == name {
			return id
		}
	}
	return -1
}
