package arc

import (
	"net/netip"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// tcOf returns the traffic class src->dst from the Figure 2a network.
func tcOf(n *topology.Network, src, dst string) topology.TrafficClass {
	return topology.TrafficClass{Src: n.Subnet(src), Dst: n.Subnet(dst)}
}

func TestSlotsDeterministic(t *testing.T) {
	n := topology.Figure2a()
	s1 := Slots(n)
	s2 := Slots(topology.Figure2a())
	if len(s1) != len(s2) {
		t.Fatalf("slot counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Key() != s2[i].Key() {
			t.Fatalf("slot order differs at %d: %s vs %s", i, s1[i].Key(), s2[i].Key())
		}
	}
}

func TestSlotKeysUnique(t *testing.T) {
	n := topology.Figure2a()
	seen := map[string]bool{}
	for _, s := range Slots(n) {
		if seen[s.Key()] {
			t.Errorf("duplicate slot key %s", s.Key())
		}
		seen[s.Key()] = true
	}
}

// TestFigure3aETG reconstructs the ETG of Figure 3a (traffic class S->T).
func TestFigure3aETG(t *testing.T) {
	n := topology.Figure2a()
	slots := NewTable(n)
	etg := BuildTCETG(slots, tcOf(n, "S", "T"))

	wantEdges := [][2]string{
		{"SRC", "A:ospf10:O"},
		{"A:ospf10:I", "A:ospf10:O"},
		{"B:ospf10:I", "B:ospf10:O"},
		{"C:ospf10:I", "C:ospf10:O"},
		{"A:ospf10:O", "B:ospf10:I"},
		{"B:ospf10:O", "A:ospf10:I"},
		{"B:ospf10:O", "C:ospf10:I"},
		{"C:ospf10:O", "B:ospf10:I"},
		{"C:ospf10:I", "DST"},
	}
	for _, we := range wantEdges {
		from, to := etg.G.Vertex(we[0]), etg.G.Vertex(we[1])
		if from < 0 || to < 0 || etg.G.FindEdge(from, to) < 0 {
			t.Errorf("missing edge %s -> %s", we[0], we[1])
		}
	}
	if etg.G.NumEdges() != len(wantEdges) {
		t.Errorf("edge count %d, want %d\n%s", etg.G.NumEdges(), len(wantEdges), etg.G.String())
	}
	// No A-C edges: C's interface toward A is passive.
	if from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("C:ospf10:I"); from >= 0 && to >= 0 && etg.G.FindEdge(from, to) >= 0 {
		t.Error("A->C edge should be absent (passive interface)")
	}
}

// TestFigure3bETG reconstructs the ETG of Figure 3b (traffic class S->U):
// the ACL on B's interface toward A removes the A->B edge.
func TestFigure3bETG(t *testing.T) {
	n := topology.Figure2a()
	etg := BuildTCETG(NewTable(n), tcOf(n, "S", "U"))
	from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("B:ospf10:I")
	if from >= 0 && to >= 0 && etg.G.FindEdge(from, to) >= 0 {
		t.Error("A->B edge should be blocked by the ACL for destination U")
	}
	// B->C and C->B remain (the routing adjacency applies to all traffic
	// classes), as the paper notes in §4.2.
	if etg.G.FindEdge(etg.G.Vertex("B:ospf10:O"), etg.G.Vertex("C:ospf10:I")) < 0 {
		t.Error("B->C edge missing in S->U ETG")
	}
	if etg.G.FindEdge(etg.G.Vertex("C:ospf10:O"), etg.G.Vertex("B:ospf10:I")) < 0 {
		t.Error("C->B edge missing in S->U ETG")
	}
}

// TestTable1OriginalPolicies checks the four policies of §2.2 against the
// unrepaired network: EP1, EP2, EP4 hold; EP3 is violated.
func TestTable1OriginalPolicies(t *testing.T) {
	n := topology.Figure2a()
	slots := NewTable(n)

	// EP1: S->U always blocked.
	if !VerifyAlwaysBlocked(BuildTCETG(slots, tcOf(n, "S", "U"))) {
		t.Error("EP1 should hold on the original network")
	}
	// EP2: S->T always traverses a waypoint.
	if !VerifyAlwaysWaypoint(BuildTCETG(slots, tcOf(n, "S", "T"))) {
		t.Error("EP2 should hold on the original network")
	}
	// EP3: S reaches T with at most one link failure (k=2) — violated.
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	if VerifyKReachable(st, n, 2) {
		t.Error("EP3 should be violated on the original network")
	}
	if MaxDisjointFlow(st) != 1 {
		t.Errorf("max-flow for S->T = %d, want 1 (dashed path of Fig. 3a)", MaxDisjointFlow(st))
	}
	// EP4: R->T uses A,B,C with no failures.
	if !VerifyPrimaryPath(BuildTCETG(slots, tcOf(n, "R", "T")), BuildRoutingETG(slots, tcOf(n, "R", "T")), []string{"A", "B", "C"}) {
		t.Error("EP4 should hold on the original network")
	}
	// Reachability under zero failures (k=1) does hold for S->T.
	if !VerifyKReachable(st, n, 1) {
		t.Error("S->T should be reachable with no failures")
	}
}

// figure2b applies the repair of Figure 2b: enable the OSPF adjacency
// between A and C by removing the passive flag on C's interface toward A.
func figure2b(n *topology.Network) {
	c := n.Device("C")
	delete(c.Process(topology.OSPF, 10).Passive, "Ethernet0/1")
}

// TestFigure2bSideEffects: the naive repair fixes EP3 but breaks EP1, EP2,
// and EP4 — the paper's challenges #1 and #2.
func TestFigure2bSideEffects(t *testing.T) {
	n := topology.Figure2a()
	figure2b(n)
	slots := NewTable(n)

	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	if !VerifyKReachable(st, n, 2) {
		t.Error("EP3 should now hold")
	}
	if MaxDisjointFlow(st) != 2 {
		t.Errorf("max-flow = %d, want 2", MaxDisjointFlow(st))
	}
	if VerifyAlwaysWaypoint(st) {
		t.Error("EP2 should now be violated (A->C path has no firewall)")
	}
	if VerifyAlwaysBlocked(BuildTCETG(slots, tcOf(n, "S", "U"))) {
		t.Error("EP1 should now be violated (A->C->B path exists)")
	}
	if VerifyPrimaryPath(BuildTCETG(slots, tcOf(n, "R", "T")), BuildRoutingETG(slots, tcOf(n, "R", "T")), []string{"A", "B", "C"}) {
		t.Error("EP4 should now be violated (A->C is shorter)")
	}
}

// figure2c applies the repair of Figure 2c: adjacency A-C, cost 3 on A's
// interface to C, firewall on A-C, and an ACL on B's interface toward C
// blocking traffic destined for U.
func figure2c(n *topology.Network) {
	figure2b(n)
	a := n.Device("A")
	a.Interface("Ethernet0/2").Cost = 3
	n.Link("A", "C").Waypoint = true
	b := n.Device("B")
	acl := b.AddACL("BLOCK-U-2")
	acl.Entries = []topology.ACLEntry{
		{Permit: false, Dst: n.Subnet("U").Prefix},
		{Permit: true},
	}
	b.Interface("Ethernet0/2").InACL = "BLOCK-U-2"
}

func TestFigure2cSatisfiesAll(t *testing.T) {
	n := topology.Figure2a()
	figure2c(n)
	slots := NewTable(n)
	if !VerifyAlwaysBlocked(BuildTCETG(slots, tcOf(n, "S", "U"))) {
		t.Error("EP1 should hold after Figure 2c repair")
	}
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	if !VerifyAlwaysWaypoint(st) {
		t.Error("EP2 should hold after Figure 2c repair")
	}
	if !VerifyKReachable(st, n, 2) {
		t.Error("EP3 should hold after Figure 2c repair")
	}
	if !VerifyPrimaryPath(BuildTCETG(slots, tcOf(n, "R", "T")), BuildRoutingETG(slots, tcOf(n, "R", "T")), []string{"A", "B", "C"}) {
		t.Error("EP4 should hold after Figure 2c repair")
	}
}

// figure2d applies the repair of Figure 2d: a static route on A for T via
// C with administrative distance 3 (worse than the OSPF path cost 2), plus
// the firewall on the A-C link.
func figure2d(n *topology.Network) {
	a := n.Device("A")
	a.AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	n.Link("A", "C").Waypoint = true
}

func TestFigure2dSatisfiesAll(t *testing.T) {
	n := topology.Figure2a()
	figure2d(n)
	slots := NewTable(n)
	if !VerifyAlwaysBlocked(BuildTCETG(slots, tcOf(n, "S", "U"))) {
		t.Error("EP1 should hold after Figure 2d repair")
	}
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	if !VerifyAlwaysWaypoint(st) {
		t.Error("EP2 should hold after Figure 2d repair")
	}
	if !VerifyKReachable(st, n, 2) {
		t.Error("EP3 should hold after Figure 2d repair")
	}
	if !VerifyPrimaryPath(BuildTCETG(slots, tcOf(n, "R", "T")), BuildRoutingETG(slots, tcOf(n, "R", "T")), []string{"A", "B", "C"}) {
		t.Error("EP4 should hold after Figure 2d repair")
	}
}

// TestFigure4CrossTrafficClass: the static route for T on A adds the
// A->C edge to the ETGs of both S->T and R->T (Figure 4).
func TestFigure4CrossTrafficClass(t *testing.T) {
	n := topology.Figure2a()
	figure2d(n)
	slots := NewTable(n)
	for _, src := range []string{"S", "R"} {
		etg := BuildTCETG(slots, tcOf(n, src, "T"))
		from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("C:ospf10:I")
		if from < 0 || to < 0 || etg.G.FindEdge(from, to) < 0 {
			t.Errorf("static-backed A->C edge missing in %s->T ETG", src)
		}
	}
	// The static route is destination-specific: no A->C edge for S->U.
	etg := BuildTCETG(slots, tcOf(n, "S", "U"))
	from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("C:ospf10:I")
	if from >= 0 && to >= 0 && etg.G.FindEdge(from, to) >= 0 {
		t.Error("static route for T must not add an A->C edge for destination U")
	}
}

func TestHierarchyByConstruction(t *testing.T) {
	// tcETG edges must exist in the dETG; dETG inter-device edges must be
	// in the aETG or static-backed; dETG intra edges must be in the aETG.
	for _, variant := range []func(*topology.Network){nil, figure2b, figure2c, figure2d} {
		n := topology.Figure2a()
		if variant != nil {
			variant(n)
		}
		slots := NewTable(n)
		for _, tc := range n.TrafficClasses() {
			for _, s := range slots.Slots {
				if s.PresentTC(tc) && !s.PresentDst(tc.Dst) {
					t.Fatalf("slot %s present in tcETG but not dETG", s.Key())
				}
			}
		}
		for _, dst := range n.Subnets {
			for _, s := range slots.Slots {
				if !s.PresentDst(dst) {
					continue
				}
				switch s.Kind {
				case SlotInterDevice:
					if !s.PresentAll() && s.StaticBacked(dst) == nil {
						t.Fatalf("slot %s present in dETG without aETG edge or static route", s.Key())
					}
				case SlotIntraSelf, SlotIntraRedist:
					if !s.PresentAll() {
						t.Fatalf("intra slot %s present in dETG but not aETG", s.Key())
					}
				}
			}
		}
	}
}

func TestDstETGIgnoresACLs(t *testing.T) {
	n := topology.Figure2a()
	slots := NewTable(n)
	d := BuildDstETG(slots, n.Subnet("U"))
	// The A->B edge is in the dETG for U even though ACLs remove it from
	// the S->U tcETG.
	from, to := d.G.Vertex("A:ospf10:O"), d.G.Vertex("B:ospf10:I")
	if from < 0 || to < 0 || d.G.FindEdge(from, to) < 0 {
		t.Error("dETG should ignore ACLs")
	}
}

func TestAllETGIgnoresFiltersAndStatics(t *testing.T) {
	n := topology.Figure2a()
	figure2d(n) // adds static route A->C for T
	slots := NewTable(n)
	a := BuildAllETG(slots)
	from, to := a.G.Vertex("A:ospf10:O"), a.G.Vertex("C:ospf10:I")
	if from >= 0 && to >= 0 && a.G.FindEdge(from, to) >= 0 {
		t.Error("aETG must not contain static-backed edges")
	}
}

func TestRouteFilterRemovesDstEdges(t *testing.T) {
	n := topology.Figure2a()
	c := n.Device("C")
	pc := c.Process(topology.OSPF, 10)
	// Filter routes to U on C's process: C can no longer forward to U.
	pc.RouteFilters = append(pc.RouteFilters, n.Subnet("U").Prefix)
	slots := NewTable(n)
	d := BuildDstETG(slots, n.Subnet("U"))
	// C's self edge CI->CO is gone for destination U.
	from, to := d.G.Vertex("C:ospf10:I"), d.G.Vertex("C:ospf10:O")
	if from >= 0 && to >= 0 && d.G.FindEdge(from, to) >= 0 {
		t.Error("route filter should remove C's self edge for destination U")
	}
	// Inter-device edges toward C (B->C) are also gone: C does not
	// advertise routes to U.
	from, to = d.G.Vertex("B:ospf10:O"), d.G.Vertex("C:ospf10:I")
	if from >= 0 && to >= 0 && d.G.FindEdge(from, to) >= 0 {
		t.Error("route filter should remove edges toward the filtering process")
	}
	// Destination T is unaffected.
	dT := BuildDstETG(slots, n.Subnet("T"))
	from, to = dT.G.Vertex("C:ospf10:I"), dT.G.Vertex("C:ospf10:O")
	if from < 0 || to < 0 || dT.G.FindEdge(from, to) < 0 {
		t.Error("route filter for U must not affect destination T")
	}
}

// linkSet returns the link-id set holding the given links of n.
func linkSet(n *topology.Network, links ...*topology.Link) bitset.Set {
	set := bitset.New(len(n.Links))
	for _, l := range links {
		for id, nl := range n.Links {
			if nl == l {
				set.Put(id, true)
			}
		}
	}
	return set
}

func TestWithoutLinks(t *testing.T) {
	n := topology.Figure2a()
	slots := NewTable(n)
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	ab := n.Link("A", "B")
	failed := st.WithoutLinks(linkSet(n, ab))
	if failed.G.PathExists(failed.Src, failed.Dst) {
		t.Error("failing A-B should disconnect S from T")
	}
	// Original untouched.
	if !st.G.PathExists(st.Src, st.Dst) {
		t.Error("WithoutLinks must not mutate the original")
	}
}

func TestDevicePath(t *testing.T) {
	n := topology.Figure2a()
	slots := NewTable(n)
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	path := st.G.ShortestPath(st.Src, st.Dst)
	got := st.DevicePath(path)
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("device path %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("device path %v, want %v", got, want)
		}
	}
}

func TestEdgeWeightsMatchCosts(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").Interface("Ethernet0/1").Cost = 7
	slots := NewTable(n)
	st := BuildTCETG(slots, tcOf(n, "S", "T"))
	from, to := st.G.Vertex("A:ospf10:O"), st.G.Vertex("B:ospf10:I")
	e := st.G.FindEdge(from, to)
	if e < 0 {
		t.Fatal("A->B edge missing")
	}
	if w := st.G.Edge(e).Weight; w != 7 {
		t.Errorf("A->B weight = %d, want 7", w)
	}
	// Reverse direction uses B's interface cost (1).
	re := st.G.FindEdge(st.G.Vertex("B:ospf10:O"), st.G.Vertex("A:ospf10:I"))
	if w := st.G.Edge(re).Weight; w != 1 {
		t.Errorf("B->A weight = %d, want 1", w)
	}
}

func TestSlotDeviceAndWaypoint(t *testing.T) {
	n := topology.Figure2a()
	for _, s := range Slots(n) {
		if s.Device() == nil {
			t.Fatalf("slot %s has no device", s.Key())
		}
		if s.Kind == SlotInterDevice && s.Link == n.Link("B", "C") && !s.Waypoint() {
			t.Errorf("slot %s over B-C should be a waypoint edge", s.Key())
		}
		if s.Kind == SlotInterDevice && s.Link == n.Link("A", "B") && s.Waypoint() {
			t.Errorf("slot %s over A-B should not be a waypoint edge", s.Key())
		}
	}
}

func TestDeviceWaypointMarksIntraEdges(t *testing.T) {
	n := topology.Figure2a()
	n.Device("B").Waypoint = true
	for _, s := range Slots(n) {
		if s.Kind == SlotIntraSelf && s.FromProc.Device.Name == "B" && !s.Waypoint() {
			t.Error("intra edge on waypoint device should be a waypoint edge")
		}
	}
}

// TestPrimaryPathACLBlindness pins the PC4 soundness rule the repair
// oracle uncovered: route selection ignores ACLs, so an ACL cannot
// enforce a primary path. With the shorter A-C adjacency enabled and an
// ACL on C's interface toward A blocking R->T, the tcETG's surviving
// shortest path collapses to the required A,B,C — but routing still
// sends the traffic over A->C, where the ACL drops it. The verifier must
// judge PC4 violated.
func TestPrimaryPathACLBlindness(t *testing.T) {
	n := topology.Figure2a()
	figure2b(n) // enable the shorter A-C adjacency
	c := n.Device("C")
	acl := c.AddACL("BLOCK-RT")
	acl.Entries = []topology.ACLEntry{
		{Permit: false, Src: n.Subnet("R").Prefix, Dst: n.Subnet("T").Prefix},
		{Permit: true},
	}
	c.Interface("Ethernet0/1").InACL = "BLOCK-RT"

	slots := NewTable(n)
	tc := tcOf(n, "R", "T")
	tcETG := BuildTCETG(slots, tc)

	// The tcETG alone is misleading: its shortest surviving path IS the
	// required primary path (this is what made the old semantics unsound).
	path, unique := tcETG.G.ShortestPathUnique(tcETG.Src, tcETG.Dst)
	if path == nil || !unique {
		t.Fatal("tcETG should have a unique surviving shortest path")
	}
	got := tcETG.DevicePath(path)
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("tcETG surviving path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tcETG surviving path %v, want %v", got, want)
		}
	}

	if VerifyPrimaryPath(tcETG, BuildRoutingETG(slots, tc), want) {
		t.Error("PC4 must be violated: routing prefers the ACL-blocked A->C edge")
	}

	// Blocking the primary path itself is also a violation, even when it
	// is the routing-preferred path.
	n2 := topology.Figure2a()
	b := n2.Device("B")
	acl2 := b.AddACL("BLOCK-RT")
	acl2.Entries = []topology.ACLEntry{
		{Permit: false, Src: n2.Subnet("R").Prefix, Dst: n2.Subnet("T").Prefix},
		{Permit: true},
	}
	b.Interface("Ethernet0/1").InACL = "BLOCK-RT"
	slots2 := NewTable(n2)
	tc2 := tcOf(n2, "R", "T")
	if VerifyPrimaryPath(BuildTCETG(slots2, tc2), BuildRoutingETG(slots2, tc2), want) {
		t.Error("PC4 must be violated: an ACL drops traffic on the primary path itself")
	}
}

// TestHandBuiltSlotsAreSafe: a slot that no table enumerated carries no
// id; ETG lookups must fall back to its key instead of indexing with a
// zero id (or panicking), and edge ids that name no edge carry no
// waypoint.
func TestHandBuiltSlotsAreSafe(t *testing.T) {
	n := topology.Figure2a()
	table := NewTable(n)
	etg := BuildTCETG(table, tcOf(n, "S", "T"))
	for _, s := range table.Slots {
		hand := &Slot{
			Kind: s.Kind, FromProc: s.FromProc, ToProc: s.ToProc, Link: s.Link,
			FromIntf: s.FromIntf, ToIntf: s.ToIntf, Subnet: s.Subnet, Intf: s.Intf,
		}
		if hand.Key() != s.Key() || hand.CostKey() != s.CostKey() {
			t.Fatalf("hand-built key %q/%q, enumerated %q/%q", hand.Key(), hand.CostKey(), s.Key(), s.CostKey())
		}
		if etg.HasSlot(hand) != etg.HasSlot(s) {
			t.Fatalf("HasSlot(%s) = %v for the hand-built twin, %v for the enumerated slot", s.Key(), etg.HasSlot(hand), etg.HasSlot(s))
		}
	}
	// A slot of another network's table (same shape, different objects)
	// resolves by key too.
	other := NewTable(topology.Figure2a())
	if !table.SameShape(other) {
		t.Fatal("two extractions of one network differ in shape")
	}
	for i, s := range other.Slots {
		if etg.HasSlot(s) != etg.HasSlot(table.Slots[i]) {
			t.Fatalf("HasSlot(%s) differs for the other table's slot", s.Key())
		}
	}
	for _, id := range []graph.E{-1, graph.E(len(table.Slots)), 1 << 20} {
		if etg.WaypointEdge(id) {
			t.Fatalf("WaypointEdge(%d) = true for an id naming no edge", id)
		}
	}
}

func TestSameShape(t *testing.T) {
	base := NewTable(topology.Figure2a())
	// A behavioural change keeps the shape; a structural one does not.
	n := topology.Figure2a()
	n.Device("A").Interface("Ethernet0/1").Cost = 9
	if !base.SameShape(NewTable(n)) {
		t.Error("a cost change altered the shape")
	}
	n = topology.Figure2a()
	n.Device("A").AddProcess(topology.BGP, 65000)
	if base.SameShape(NewTable(n)) {
		t.Error("an added process kept the shape")
	}
	for id, s := range base.Slots {
		if s.ID != id || base.SlotID(s.Key()) != id {
			t.Fatalf("slot %s: ID %d, SlotID %d, position %d", s.Key(), s.ID, base.SlotID(s.Key()), id)
		}
		if s.Kind == SlotInterDevice {
			rev := base.Slots[s.Canon]
			if s.Canon > id || (s.Canon != id && (rev.FromProc != s.ToProc || rev.ToProc != s.FromProc || rev.Link != s.Link)) {
				t.Fatalf("slot %s: canon %d is not the lower-id direction of its adjacency", s.Key(), s.Canon)
			}
		} else if s.Canon != id {
			t.Fatalf("slot %s: non-adjacency slot with canon %d", s.Key(), s.Canon)
		}
	}
	if base.SlotID("no-such-slot") != -1 {
		t.Error("SlotID of an unknown key is not -1")
	}
}
