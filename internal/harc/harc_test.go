package harc

import (
	"net/netip"
	"testing"

	"repro/internal/arc"
	"repro/internal/topology"
)

// interSlot returns the (last) inter-device slot from device a to b.
func interSlot(h *HARC, a, b string) *arc.Slot {
	var slot *arc.Slot
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && s.FromProc.Device.Name == a && s.ToProc.Device.Name == b {
			slot = s
		}
	}
	return slot
}

// procID returns the id of the named process, or -1.
func procID(h *HARC, name string) int {
	for id, p := range h.Procs {
		if p.Name() == name {
			return id
		}
	}
	return -1
}

func TestBuildFigure2a(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	if len(h.TCs) != 12 {
		t.Fatalf("traffic classes = %d, want 12", len(h.TCs))
	}
	if len(h.Dsts) != 4 || len(h.TC) != 12 {
		t.Fatalf("destinations = %d, tcETGs = %d, want 4 and 12", len(h.Dsts), len(h.TC))
	}
	if err := h.ValidateState(StateOf(h)); err != nil {
		t.Fatalf("ValidateState: %v", err)
	}
}

func TestBuildForTCsSubset(t *testing.T) {
	n := topology.Figure2a()
	tcs := []topology.TrafficClass{
		{Src: n.Subnet("S"), Dst: n.Subnet("T")},
		{Src: n.Subnet("R"), Dst: n.Subnet("T")},
	}
	h := BuildForTCs(n, tcs)
	if len(h.TC) != 2 {
		t.Fatalf("tcETGs = %d, want 2", len(h.TC))
	}
	if len(h.Dsts) != 1 || h.DstRow(n.Subnet("T")) != 0 {
		t.Fatal("expected a single destination row, for T")
	}
}

func TestValidateStateWithStatic(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	h := Build(n)
	st := StateOf(h)
	if err := h.ValidateState(st); err != nil {
		t.Fatalf("static-backed edge should be hierarchy-valid: %v", err)
	}
	// The static edge is in the dETG for T but not in the aETG.
	slot := interSlot(h, "A", "C")
	if slot == nil {
		t.Fatal("A->C slot not found")
	}
	if !st.Dst[h.DstRow(n.Subnet("T"))].Has(slot.ID) {
		t.Error("A->C should be in dETG(T)")
	}
	if st.All.Has(slot.ID) {
		t.Error("A->C should not be in aETG")
	}
}

func TestStateOfRoundTrip(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	if err := h.ValidateState(st); err != nil {
		t.Fatalf("ValidateState on extracted state: %v", err)
	}
	// The state's tcETG must equal the directly-built tcETG for every tc.
	for _, tc := range h.TCs {
		direct := h.TCETG(tc)
		fromState := BuildTCETGFromState(h, st, tc)
		if direct.G.String() != fromState.G.String() {
			t.Errorf("tcETG(%s) mismatch:\ndirect:\n%s\nstate:\n%s", tc, direct.G.String(), fromState.G.String())
		}
	}
}

func TestStateOfCosts(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").Interface("Ethernet0/1").Cost = 9
	h := Build(n)
	st := StateOf(h)
	if st.Cost["A/Ethernet0/1"] != 9 {
		t.Errorf("cost A/Ethernet0/1 = %d, want 9", st.Cost["A/Ethernet0/1"])
	}
	if st.Cost["B/Ethernet0/1"] != 1 {
		t.Errorf("cost B/Ethernet0/1 = %d, want 1", st.Cost["B/Ethernet0/1"])
	}
}

func TestStateClone(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	c := st.Clone()
	c.SetAll(0, !c.All.Has(0))
	for k := range c.Cost {
		c.Cost[k] = 99
		break
	}
	if c.All.Equal(st.All) {
		t.Error("clone mutation should diverge from original")
	}
	// Original costs untouched.
	for _, v := range st.Cost {
		if v == 99 {
			t.Error("clone cost mutation leaked into original")
		}
	}
}

func TestValidateStateCatchesHierarchyViolation(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// Force an edge into a tcETG without its dETG: pick an inter-device
	// slot absent from the dETG for U (e.g. A->C, passive).
	id := interSlot(h, "A", "C").ID
	st.SetTC(h.TCRow(topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("U")}), id, true)
	if err := h.ValidateState(st); err == nil {
		t.Error("ValidateState should reject tcETG edge missing from dETG")
	}
}

func TestValidateStateCatchesIntraViolation(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// An intra-redist edge present in a dETG but not the aETG is invalid.
	id := -1
	for _, s := range h.Slots {
		if s.Kind == arc.SlotIntraRedist {
			id = s.ID
			break
		}
	}
	if id < 0 {
		// Figure2a has single-process devices; fabricate a second process.
		n2 := topology.Figure2a()
		d := n2.Device("A")
		d.AddProcess(topology.BGP, 65000)
		h = Build(n2)
		st = StateOf(h)
		for _, s := range h.Slots {
			if s.Kind == arc.SlotIntraRedist {
				id = s.ID
				break
			}
		}
	}
	if id < 0 {
		t.Fatal("no intra-redist slot found")
	}
	st.SetDst(0, id, true)
	st.SetAll(id, false)
	if err := h.ValidateState(st); err == nil {
		t.Error("ValidateState should reject intra dETG edge missing from aETG")
	}
}

func TestBuildTCETGFromStateRespectsEdits(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	tc := topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}
	// Add the A->C edge at all levels (the Figure 2b repair in state form).
	id := interSlot(h, "A", "C").ID
	st.SetAll(id, true)
	st.SetDst(h.DstRow(n.Subnet("T")), id, true)
	st.SetTC(h.TCRow(tc), id, true)
	etg := BuildTCETGFromState(h, st, tc)
	from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("C:ospf10:I")
	if from < 0 || to < 0 || etg.G.FindEdge(from, to) < 0 {
		t.Fatal("state-added edge not materialized")
	}
	if !arc.VerifyKReachable(etg, n, 2) {
		t.Error("EP3 should hold on the repaired state")
	}
}

func TestStateOfConstructs(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	pc := n.Device("C").Process(topology.OSPF, 10)
	pc.RouteFilters = append(pc.RouteFilters, n.Subnet("U").Prefix)
	h := Build(n)
	st := StateOf(h)
	u, tRow, c10 := h.DstRow(n.Subnet("U")), h.DstRow(n.Subnet("T")), procID(h, "C:ospf10")
	if !st.RouteFilter[u].Has(c10) {
		t.Error("route filter on C for U not recorded")
	}
	if st.RouteFilter[tRow].Has(c10) {
		t.Error("no filter for T should be recorded")
	}
	if st.Static[tRow].Count() == 0 {
		t.Error("static route for T not recorded")
	}
	// Clone copies constructs on write.
	c := st.Clone()
	c.SetRouteFilter(u, c10, false)
	if !st.RouteFilter[u].Has(c10) {
		t.Error("clone construct mutation leaked")
	}
}

func TestValidateStateStaticBackedIntra(t *testing.T) {
	// An inter-device edge backed by a state-level static (no aETG edge)
	// must be hierarchy-valid, and invalid once the static bit goes.
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// Pretend a static for T leaves A via C: find the A->C inter slot.
	id, tRow := interSlot(h, "A", "C").ID, h.DstRow(n.Subnet("T"))
	st.SetStatic(tRow, id, true)
	st.SetDst(tRow, id, true)
	if err := h.ValidateState(st); err != nil {
		t.Errorf("static-backed inter edge should validate: %v", err)
	}
	st.SetStatic(tRow, id, false)
	if err := h.ValidateState(st); err == nil {
		t.Error("ValidateState should reject an inter-device dETG edge with neither aETG edge nor static route")
	}
}

func TestCostKey(t *testing.T) {
	n := topology.Figure2a()
	var interSlot, selfSlot *arc.Slot
	for _, s := range arc.Slots(n) {
		switch s.Kind {
		case arc.SlotInterDevice:
			interSlot = s
		case arc.SlotIntraSelf:
			selfSlot = s
		}
	}
	if interSlot.CostKey() == "" {
		t.Error("inter-device slot should have a cost key")
	}
	if selfSlot.CostKey() != "" {
		t.Error("intra slot should have no cost key")
	}
}
