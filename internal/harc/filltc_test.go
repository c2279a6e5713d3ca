package harc_test

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/arc"
	"repro/internal/harc"
	"repro/internal/topology"
)

// sharedACLNetwork is a chain A–B–C. Subnets S1 and S2 hang off A, T1, T2
// and T3 off C. A's interface toward B carries egress ACL X, which denies
// S1→T1 only, so it guards the A→B slots of T1's and T2's rows alike. B's
// process filters T3, so T3's row lacks those slots: X guards nothing T3
// needs.
func sharedACLNetwork() *topology.Network {
	n := topology.NewNetwork()
	devs := map[string]*topology.Device{}
	procs := map[string]*topology.Process{}
	for _, name := range []string{"A", "B", "C"} {
		devs[name] = n.AddDevice(name)
		p := devs[name].AddProcess(topology.OSPF, 1)
		p.Passive = map[string]bool{}
		p.RedistributeConnected = true
		procs[name] = p
	}
	link := func(i int, a, b string) *topology.Interface {
		ia, ib := devs[a].AddInterface("to"+b), devs[b].AddInterface("to"+a)
		ia.Prefix = netip.MustParsePrefix(fmt.Sprintf("10.0.%d.1/30", i))
		ib.Prefix = netip.MustParsePrefix(fmt.Sprintf("10.0.%d.2/30", i))
		n.AddLink(ia, ib)
		procs[a].Interfaces = append(procs[a].Interfaces, ia)
		procs[b].Interfaces = append(procs[b].Interfaces, ib)
		return ia
	}
	aToB := link(0, "A", "B")
	link(1, "B", "C")
	subnet := func(dev, name string, i int) *topology.Subnet {
		intf := devs[dev].AddInterface("host" + name)
		intf.Prefix = netip.MustParsePrefix(fmt.Sprintf("20.0.%d.1/24", i))
		intf.Subnet = n.AddSubnet(name, netip.MustParsePrefix(fmt.Sprintf("20.0.%d.0/24", i)))
		return intf.Subnet
	}
	s1, t1 := subnet("A", "S1", 1), subnet("C", "T1", 3)
	subnet("A", "S2", 2)
	subnet("C", "T2", 4)
	t3 := subnet("C", "T3", 5)
	x := devs["A"].AddACL("X")
	x.Entries = []topology.ACLEntry{{Permit: false, Src: s1.Prefix, Dst: t1.Prefix}, {Permit: true}}
	aToB.OutACL = x.Name
	procs["B"].RouteFilters = append(procs["B"].RouteFilters, t3.Prefix)
	return n
}

// TestFillTCSharedACL: a destination needs exactly the ACLs that guard a
// slot present in its row — X for every destination but T3, none for T3 —
// and the class rows derived from them match the configuration-reading
// rule slot by slot: X clears the A→B slots of S1→T1 and of no other
// class. A mutant that lists for a destination the ACLs guarding any
// destination's slots, or that skips the destination-row test, gives T3
// the ACL and fails.
func TestFillTCSharedACL(t *testing.T) {
	n := sharedACLNetwork()
	h := harc.BuildLite(n, n.TrafficClasses())
	st := harc.StateOf(h)

	x := int32(slices.IndexFunc(h.ACLs, func(a *topology.ACL) bool { return a != nil && a.Name == "X" }))
	if x <= 0 || len(h.Guarded(x)) == 0 {
		t.Fatalf("ACL X has id %d and guards %v", x, h.Guarded(max(x, 0)))
	}
	for _, id := range h.Guarded(x) {
		if s := h.Slots[id]; s.Kind != arc.SlotInterDevice || s.FromProc.Device.Name != "A" || s.ToProc.Device.Name != "B" {
			t.Fatalf("X guards %s, want only A→B slots", s.Key())
		}
	}
	off, ids := harc.DstACLs(h, st)
	want := map[string][]int32{"T1": {x}, "T2": {x}, "S1": {x}, "S2": {x}, "T3": nil}
	for d, dst := range h.Dsts {
		if got := ids[off[d]:off[d+1]]; !slices.Equal(got, want[dst.Name]) {
			t.Errorf("destination %s needs ACLs %v, want %v", dst.Name, got, want[dst.Name])
		}
	}

	assertMatchesReference(t, h, st, refStateOf(h))
	cleared := 0
	for r, tc := range h.TCs {
		for id, s := range h.Slots {
			if st.Dst[h.DstOf(r)].Has(id) && !st.TC[r].Has(id) {
				cleared++
				if tc.String() != "S1->T1" || !slices.Contains(h.Guarded(x), int32(id)) {
					t.Errorf("class %s lacks %s, which its destination has", tc, s.Key())
				}
			}
		}
	}
	if cleared == 0 {
		t.Error("X clears nothing of S1→T1: the fixture shows nothing")
	}
}
