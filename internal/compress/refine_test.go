package compress

import (
	"net/netip"
	"testing"

	"repro/internal/topology"
)

func mp(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// diamond builds the minimal symmetric quotient fixture: src—s, two
// interchangeable transit routers m1/m2, and t—dst. With identical
// configurations, m1 and m2 must merge; each negative test perturbs one
// attribute on m2 and asserts the pair splits.
func diamond() *topology.Network {
	n := topology.NewNetwork()
	src := n.AddSubnet("src", mp("10.1.0.0/24"))
	dst := n.AddSubnet("dst", mp("10.2.0.0/24"))
	s := n.AddDevice("s")
	m1 := n.AddDevice("m1")
	m2 := n.AddDevice("m2")
	tdev := n.AddDevice("t")
	hs := s.AddInterface("h0")
	hs.Prefix, hs.Subnet = mp("10.1.0.1/24"), src
	ht := tdev.AddInterface("h0")
	ht.Prefix, ht.Subnet = mp("10.2.0.1/24"), dst
	link := func(a *topology.Device, an, ap string, b *topology.Device, bn, bp string) {
		ia := a.AddInterface(an)
		ia.Prefix = mp(ap)
		ib := b.AddInterface(bn)
		ib.Prefix = mp(bp)
		n.AddLink(ia, ib)
	}
	link(s, "e1", "10.0.1.1/30", m1, "e0", "10.0.1.2/30")
	link(s, "e2", "10.0.2.1/30", m2, "e0", "10.0.2.2/30")
	link(m1, "e1", "10.0.3.1/30", tdev, "e1", "10.0.3.2/30")
	link(m2, "e1", "10.0.4.1/30", tdev, "e2", "10.0.4.2/30")
	for _, d := range n.Devices() {
		p := d.AddProcess(topology.OSPF, 1)
		p.Passive = map[string]bool{}
		for _, i := range d.Interfaces() {
			p.Interfaces = append(p.Interfaces, i)
			if i.Subnet != nil {
				p.Passive[i.Name] = true
			}
		}
	}
	return n
}

func buildDiamond(t *testing.T, n *topology.Network) *Quotient {
	t.Helper()
	tc := topology.TrafficClass{Src: n.Subnet("src"), Dst: n.Subnet("dst")}
	q, err := Build(n, Spec{TCs: []topology.TrafficClass{tc}, Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Net.Validate(); err != nil {
		t.Fatalf("quotient does not validate: %v", err)
	}
	return q
}

func TestDiamondMergesSymmetricTransits(t *testing.T) {
	q := buildDiamond(t, diamond())
	if q.ClassOf["m1"] != q.ClassOf["m2"] {
		t.Fatalf("identical transit routers in distinct classes %d and %d",
			q.ClassOf["m1"], q.ClassOf["m2"])
	}
	// Endpoint-attached devices are policy-concrete: never merged away.
	if q.ClassOf["s"] == q.ClassOf["t"] {
		t.Fatal("endpoint devices s and t merged")
	}
	for _, name := range []string{"s", "t"} {
		if got := len(q.Classes[q.ClassOf[name]].Members); got != 1 {
			t.Fatalf("endpoint device %s in a class of %d members", name, got)
		}
	}
}

// The negative-merge suite: a single differing attribute must split an
// otherwise role-equivalent pair. Over-merging here would hand the
// solver a quotient whose repairs cannot concretize soundly (caught
// later by re-verification, but at the cost of a wasted solve).

func TestACLLineSplitsClass(t *testing.T) {
	n := diamond()
	for _, name := range []string{"m1", "m2"} {
		d := n.Device(name)
		acl := d.AddACL("blk")
		acl.Entries = append(acl.Entries, topology.ACLEntry{Permit: true})
		d.Interface("e0").InACL = "blk"
	}
	// One extra deny line on m2's copy of the same-named ACL.
	m2 := n.Device("m2")
	m2.ACLs["blk"].Entries = append([]topology.ACLEntry{
		{Permit: false, Src: mp("10.1.0.0/24"), Dst: mp("10.2.0.0/24")},
	}, m2.ACLs["blk"].Entries...)
	q := buildDiamond(t, n)
	if q.ClassOf["m1"] == q.ClassOf["m2"] {
		t.Fatal("routers differing in one ACL line merged")
	}
}

func TestLinkWeightSplitsClass(t *testing.T) {
	n := diamond()
	n.Device("m2").Interface("e1").Cost = 5
	q := buildDiamond(t, n)
	if q.ClassOf["m1"] == q.ClassOf["m2"] {
		t.Fatal("routers differing in one link weight merged")
	}
}

func TestStaticRouteSplitsClass(t *testing.T) {
	n := diamond()
	n.Device("m2").AddStatic(mp("10.2.0.0/24"), netip.MustParseAddr("10.0.4.2"), 1)
	q := buildDiamond(t, n)
	if q.ClassOf["m1"] == q.ClassOf["m2"] {
		t.Fatal("a static route on one router of the pair did not split it")
	}
}

func TestRouteFilterSplitsClass(t *testing.T) {
	n := diamond()
	p := n.Device("m2").Process(topology.OSPF, 1)
	p.RouteFilters = append(p.RouteFilters, mp("10.2.0.0/24"))
	q := buildDiamond(t, n)
	if q.ClassOf["m1"] == q.ClassOf["m2"] {
		t.Fatal("a route filter on one router of the pair did not split it")
	}
}

func TestNeighborhoodSplitsClass(t *testing.T) {
	// m1 and m2 stay locally identical, but m2 gains a stub neighbor:
	// the fixed-point refinement must separate them on structure alone.
	n := diamond()
	stub := n.AddDevice("stub")
	is := stub.AddInterface("e0")
	is.Prefix = mp("10.0.5.2/30")
	im := n.Device("m2").AddInterface("e9")
	im.Prefix = mp("10.0.5.1/30")
	n.AddLink(im, is)
	sp := stub.AddProcess(topology.OSPF, 1)
	sp.Interfaces = append(sp.Interfaces, is)
	mp2 := n.Device("m2").Process(topology.OSPF, 1)
	mp2.Interfaces = append(mp2.Interfaces, im)
	q := buildDiamond(t, n)
	if q.ClassOf["m1"] == q.ClassOf["m2"] {
		t.Fatal("routers with different neighborhoods merged")
	}
}
