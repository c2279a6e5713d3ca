package simulate

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/arc"
	"repro/internal/topology"
)

func tcOf(n *topology.Network, src, dst string) topology.TrafficClass {
	return topology.TrafficClass{Src: n.Subnet(src), Dst: n.Subnet(dst)}
}

func TestForwardFigure2a(t *testing.T) {
	n := topology.Figure2a()
	// R -> T follows A, B, C.
	out, path, amb := Forward(n, tcOf(n, "R", "T"), nil)
	if out != Delivered {
		t.Fatalf("R->T outcome %v", out)
	}
	if amb {
		t.Error("R->T should be deterministic")
	}
	want := []string{"A", "B", "C"}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	// S -> U is dropped by the ACL on B.
	out, _, _ = Forward(n, tcOf(n, "S", "U"), nil)
	if out != Dropped {
		t.Errorf("S->U outcome %v, want dropped", out)
	}
}

func TestForwardUnderFailure(t *testing.T) {
	n := topology.Figure2a()
	failed := map[*topology.Link]bool{n.Link("A", "B"): true}
	// With A-B down, S->T has no path (C's interface to A is passive).
	out, _, _ := Forward(n, tcOf(n, "S", "T"), failed)
	if out != Dropped {
		t.Errorf("S->T under A-B failure: %v, want dropped", out)
	}
}

func TestStaticRouteForwarding(t *testing.T) {
	n := topology.Figure2a()
	// Figure 2d: static on A for T via C, distance 3 (worse than OSPF's
	// 110? No — administrative distance compares across protocols: 3
	// beats 110, so the static would win; the paper treats the distance
	// as an ETG cost instead. Use distance 120 to keep OSPF preferred.)
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 120)
	out, path, _ := Forward(n, tcOf(n, "S", "T"), nil)
	if out != Delivered || path[1] != "B" {
		t.Errorf("OSPF (admin 110) should beat the 120 static: %v %v", out, path)
	}
	// Under A-B failure the static is the fallback.
	failed := map[*topology.Link]bool{n.Link("A", "B"): true}
	out, path, _ = Forward(n, tcOf(n, "S", "T"), failed)
	if out != Delivered || len(path) != 2 || path[1] != "C" {
		t.Errorf("static fallback failed: %v %v", out, path)
	}
}

func TestStaticRoutePreferred(t *testing.T) {
	n := topology.Figure2a()
	// Distance 3 beats OSPF's 110: traffic for T leaves A via C directly.
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	out, path, _ := Forward(n, tcOf(n, "S", "T"), nil)
	if out != Delivered || len(path) != 2 || path[1] != "C" {
		t.Errorf("static should be preferred: %v %v", out, path)
	}
}

func TestRouteFilterDropsTraffic(t *testing.T) {
	n := topology.Figure2a()
	// B filters routes to T: traffic from S toward T dies at B... but A
	// only learns T via B, so A itself has no route either.
	n.Device("B").Process(topology.OSPF, 10).RouteFilters = append(
		n.Device("B").Process(topology.OSPF, 10).RouteFilters, n.Subnet("T").Prefix)
	out, _, _ := Forward(n, tcOf(n, "S", "T"), nil)
	if out != Dropped {
		t.Errorf("outcome %v, want dropped (route filter on B)", out)
	}
}

func TestECMPAmbiguity(t *testing.T) {
	n := topology.Figure2a()
	// Enable A-C with cost 2 so A has two equal-cost routes to T.
	delete(n.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	n.Device("A").Interface("Ethernet0/2").Cost = 2
	_, _, amb := Forward(n, tcOf(n, "S", "T"), nil)
	if !amb {
		t.Error("equal-cost paths should be flagged ambiguous")
	}
}

func TestLoopDetection(t *testing.T) {
	// Statics pointing at each other: A says via B, B says via A.
	n := topology.NewNetwork()
	a := n.AddDevice("a")
	b := n.AddDevice("b")
	ia := a.AddInterface("e0")
	ia.Prefix = netip.MustParsePrefix("10.0.0.1/24")
	ib := b.AddInterface("e0")
	ib.Prefix = netip.MustParsePrefix("10.0.0.2/24")
	n.AddLink(ia, ib)
	src := n.AddSubnet("src", netip.MustParsePrefix("20.0.0.0/24"))
	isrc := a.AddInterface("h0")
	isrc.Prefix = netip.MustParsePrefix("20.0.0.1/24")
	isrc.Subnet = src
	dst := n.AddSubnet("dst", netip.MustParsePrefix("20.0.1.0/24"))
	// dst attaches NOWHERE; both devices have statics at each other.
	a.AddStatic(dst.Prefix, netip.MustParseAddr("10.0.0.2"), 1)
	b.AddStatic(dst.Prefix, netip.MustParseAddr("10.0.0.1"), 1)
	out, _, _ := Forward(n, topology.TrafficClass{Src: src, Dst: dst}, nil)
	if out != Looped {
		t.Errorf("outcome %v, want looped", out)
	}
}

// randomIGPNetwork builds a random OSPF-only network (filters and ACLs,
// no statics) for equivalence testing.
func randomIGPNetwork(r *rand.Rand) *topology.Network {
	n := topology.NewNetwork()
	nDev := 3 + r.Intn(3)
	devs := make([]*topology.Device, nDev)
	procs := make([]*topology.Process, nDev)
	for i := range devs {
		devs[i] = n.AddDevice(fmt.Sprintf("d%d", i))
		procs[i] = devs[i].AddProcess(topology.OSPF, 1)
		procs[i].Passive = map[string]bool{}
		procs[i].RedistributeConnected = true
	}
	linkIdx := 0
	for i := 0; i < nDev; i++ {
		for j := i + 1; j < nDev; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			ia := devs[i].AddInterface(fmt.Sprintf("to%d", j))
			ib := devs[j].AddInterface(fmt.Sprintf("to%d", i))
			ia.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(linkIdx), 1}), 24)
			ib.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(linkIdx), 2}), 24)
			ia.Cost = 1 + r.Intn(4)
			ib.Cost = 1 + r.Intn(4)
			n.AddLink(ia, ib)
			procs[i].Interfaces = append(procs[i].Interfaces, ia)
			procs[j].Interfaces = append(procs[j].Interfaces, ib)
			linkIdx++
		}
	}
	for s := 0; s < 2; s++ {
		d := r.Intn(nDev)
		intf := devs[d].AddInterface(fmt.Sprintf("h%d", s))
		intf.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(s), 0, 1}), 24)
		sub := n.AddSubnet(fmt.Sprintf("net%d", s), netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(s), 0, 0}), 24))
		intf.Subnet = sub
		if r.Intn(4) == 0 {
			acl := devs[d].AddACL(fmt.Sprintf("A%d", s))
			acl.Entries = []topology.ACLEntry{{Permit: false, Dst: sub.Prefix}, {Permit: true}}
			intf.OutACL = acl.Name
		}
	}
	if r.Intn(3) == 0 {
		p := procs[r.Intn(nDev)]
		p.RouteFilters = append(p.RouteFilters, n.Subnets[r.Intn(2)].Prefix)
	}
	return n
}

// sameDevice reports whether both subnets attach to one router. ARC's
// ETGs cannot express direct same-device delivery (traffic would hairpin
// through a neighbor), so such classes are outside the equivalence
// theorem's scope.
func sameDevice(n *topology.Network, tc topology.TrafficClass) bool {
	var srcDev, dstDev *topology.Device
	for _, d := range n.Devices() {
		for _, intf := range d.Interfaces() {
			if intf.Subnet == tc.Src {
				srcDev = d
			}
			if intf.Subnet == tc.Dst {
				dstDev = d
			}
		}
	}
	return srcDev != nil && srcDev == dstDev
}

// TestPathsetEquivalence is ARC's §4.1 theorem checked against the
// independent simulator: the tcETG has a SRC→DST path iff the simulated
// network delivers the class under some combination of failures.
func TestPathsetEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomIGPNetwork(r)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		if sameDevice(n, tc) {
			return true
		}
		etg := arc.BuildTCETG(arc.NewTable(n), tc)
		etgHasPath := etg.G.PathExists(etg.Src, etg.Dst)
		simReaches := ReachableUnderSomeFailure(n, tc, len(n.Links))
		if etgHasPath != simReaches {
			t.Logf("seed %d: etg=%v sim=%v", seed, etgHasPath, simReaches)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPathEquivalence checks the stronger §4.1 property on restricted
// configurations: with unique shortest paths, the ETG's shortest path is
// exactly the simulator's forwarding path.
func TestPathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomIGPNetwork(r)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		if sameDevice(n, tc) {
			return true
		}
		etg := arc.BuildTCETG(arc.NewTable(n), tc)
		path, unique := etg.G.ShortestPathUnique(etg.Src, etg.Dst)
		if path == nil || !unique {
			return true // unreachable or ambiguous: out of scope
		}
		out, simPath, amb := Forward(n, tc, nil)
		if amb {
			return true // simulator saw ECMP: ETG tie-breaks differ
		}
		if out != Delivered {
			t.Logf("seed %d: ETG has unique path but sim says %v", seed, out)
			return false
		}
		etgDevs := etg.DevicePath(path)
		if len(etgDevs) != len(simPath) {
			t.Logf("seed %d: etg %v vs sim %v", seed, etgDevs, simPath)
			return false
		}
		for i := range etgDevs {
			if etgDevs[i] != simPath[i] {
				t.Logf("seed %d: etg %v vs sim %v", seed, etgDevs, simPath)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestForwardTraceWaypoint(t *testing.T) {
	n := topology.Figure2a()
	tr := ForwardTrace(n, tcOf(n, "S", "T"), nil)
	if tr.Outcome != Delivered || !tr.Waypoint {
		t.Errorf("S->T should cross the B-C firewall: %+v", tr)
	}
	tr2 := ForwardTrace(n, tcOf(n, "R", "U"), nil)
	if tr2.Outcome != Dropped {
		t.Errorf("R->U should be dropped: %+v", tr2)
	}
}

func TestAlwaysTraversesWaypointFigure2a(t *testing.T) {
	n := topology.Figure2a()
	if !AlwaysTraversesWaypoint(n, tcOf(n, "S", "T")) {
		t.Error("every delivered S->T path crosses the firewall (EP2)")
	}
	// Enable A-C: a firewall-free path appears.
	delete(n.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	if AlwaysTraversesWaypoint(n, tcOf(n, "S", "T")) {
		t.Error("A->C bypass should break EP2")
	}
}

// TestWaypointEquivalence: the PC2 verifier agrees with the simulator's
// exhaustive failure enumeration on IGP-only networks. The ETG check is
// one-directional by nature ("no waypoint-free path exists" implies the
// simulator never delivers without a waypoint), and on these restricted
// networks the converse holds too.
func TestWaypointEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomIGPNetwork(r)
		// Sprinkle waypoints.
		for _, l := range n.Links {
			if r.Intn(3) == 0 {
				l.Waypoint = true
			}
		}
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		if sameDevice(n, tc) {
			return true
		}
		etg := arc.BuildTCETG(arc.NewTable(n), tc)
		etgOK := arc.VerifyAlwaysWaypoint(etg)
		simOK := AlwaysTraversesWaypoint(n, tc)
		if etgOK != simOK {
			t.Logf("seed %d: etg=%v sim=%v", seed, etgOK, simOK)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKReachableEquivalence: the exact PC3 verifier agrees with the
// simulator's all-failures check on IGP-only networks.
func TestKReachableEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomIGPNetwork(r)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		if sameDevice(n, tc) {
			return true
		}
		etg := arc.BuildTCETG(arc.NewTable(n), tc)
		for k := 1; k <= 2; k++ {
			etgOK := arc.VerifyKReachable(etg, n, k)
			simOK := DeliveredUnderAllFailures(n, tc, k)
			if etgOK != simOK {
				t.Logf("seed %d k=%d: etg=%v sim=%v", seed, k, etgOK, simOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
