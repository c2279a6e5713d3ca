package config

import (
	"net/netip"
	"testing"

	"repro/internal/topology"
)

func parseB(t *testing.T) *Config {
	t.Helper()
	cfg, err := Parse("B.cfg", Figure2aConfigs()["B"])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func parseC(t *testing.T) *Config {
	t.Helper()
	cfg, err := Parse("C.cfg", Figure2aConfigs()["C"])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

var (
	sPfx = netip.MustParsePrefix("10.30.0.0/16")
	uPfx = netip.MustParsePrefix("10.40.0.0/16")
	tPfx = netip.MustParsePrefix("10.20.0.0/16")
)

func TestAddACLDenyExistingACL(t *testing.T) {
	cfg := parseB(t)
	changes, err := cfg.AddACLDeny("Ethernet0/1", "in", sPfx, tPfx)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpAdd {
		t.Fatalf("expected 1 added line, got %v", changes)
	}
	acl := cfg.ACL("BLOCK-U")
	if len(acl.Entries) != 3 || acl.Entries[0].Permit || acl.Entries[0].Dst != tPfx {
		t.Errorf("deny entry not prepended: %+v", acl.Entries)
	}
}

func TestAddACLDenyCreatesACL(t *testing.T) {
	cfg := parseB(t)
	changes, err := cfg.AddACLDeny("Ethernet0/2", "out", sPfx, uPfx)
	if err != nil {
		t.Fatal(err)
	}
	// New ACL: deny + permit-any + access-group attach = 3 lines.
	if len(changes) != 3 {
		t.Fatalf("expected 3 added lines, got %d: %v", len(changes), changes)
	}
	intf := cfg.Interface("Ethernet0/2")
	if intf.OutACL == "" {
		t.Fatal("out ACL not attached")
	}
	acl := cfg.ACL(intf.OutACL)
	if acl == nil || len(acl.Entries) != 2 {
		t.Fatalf("new ACL malformed: %+v", acl)
	}
	// The printed config must reparse.
	if _, err := Parse("B2", cfg.Print()); err != nil {
		t.Errorf("mutated config does not reparse: %v", err)
	}
}

func TestRemoveACLDenyExactMatch(t *testing.T) {
	cfg := parseB(t)
	// BLOCK-U has "deny ip any 10.40/16": removing the any->U deny is an
	// exact match (src invalid = any).
	changes, err := cfg.RemoveACLDeny("Ethernet0/1", "in", netip.Prefix{}, uPfx)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpRemove {
		t.Fatalf("expected 1 removed line, got %v", changes)
	}
	acl := cfg.ACL("BLOCK-U")
	if len(acl.Entries) != 1 || !acl.Entries[0].Permit {
		t.Errorf("deny not removed: %+v", acl.Entries)
	}
}

func TestRemoveACLDenyPrependsPermit(t *testing.T) {
	cfg := parseB(t)
	changes, err := cfg.RemoveACLDeny("Ethernet0/1", "in", sPfx, uPfx)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpAdd {
		t.Fatalf("expected 1 added permit line, got %v", changes)
	}
	acl := cfg.ACL("BLOCK-U")
	if !acl.Entries[0].Permit || acl.Entries[0].Src != sPfx {
		t.Errorf("permit not prepended: %+v", acl.Entries[0])
	}
}

func TestRemoveACLDenyNoACL(t *testing.T) {
	cfg := parseC(t)
	changes, err := cfg.RemoveACLDeny("Ethernet0/1", "in", sPfx, uPfx)
	if err != nil {
		t.Fatal(err)
	}
	if changes != nil {
		t.Errorf("no ACL attached: expected no changes, got %v", changes)
	}
}

func TestEnableAdjacencyRemovesPassive(t *testing.T) {
	cfg := parseC(t)
	changes, err := cfg.EnableAdjacency(topology.OSPF, 10, "Ethernet0/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpRemove {
		t.Fatalf("expected 1 removed passive line, got %v", changes)
	}
	r := cfg.Router(topology.OSPF, 10)
	for _, p := range r.Passive {
		if p == "Ethernet0/1" {
			t.Error("passive line not removed")
		}
	}
}

func TestEnableAdjacencyAddsNetwork(t *testing.T) {
	cfg, err := Parse("t", `hostname t
interface e0
 ip address 10.9.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
`)
	if err != nil {
		t.Fatal(err)
	}
	changes, err := cfg.EnableAdjacency(topology.OSPF, 1, "e0")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpAdd {
		t.Fatalf("expected 1 added network line, got %v", changes)
	}
	r := cfg.Router(topology.OSPF, 1)
	if len(r.Networks) != 2 {
		t.Errorf("network statement not added: %v", r.Networks)
	}
}

func TestDisableAdjacency(t *testing.T) {
	cfg := parseB(t)
	changes, err := cfg.DisableAdjacency(topology.OSPF, 10, "Ethernet0/2")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Op != OpAdd {
		t.Fatalf("expected 1 added passive line, got %v", changes)
	}
	// Idempotent.
	changes, err = cfg.DisableAdjacency(topology.OSPF, 10, "Ethernet0/2")
	if err != nil || changes != nil {
		t.Errorf("second disable should be a no-op, got %v, %v", changes, err)
	}
}

func TestStaticRouteAddRemove(t *testing.T) {
	cfg := parseC(t)
	nh := netip.MustParseAddr("10.0.3.2")
	add, err := cfg.AddStaticRoute(uPfx, nh, 5)
	if err != nil || len(add) != 1 || add[0].Op != OpAdd {
		t.Fatalf("add: %v, %v", add, err)
	}
	if len(cfg.Statics) != 1 {
		t.Fatal("static not recorded")
	}
	rm, err := cfg.RemoveStaticRoute(uPfx, nh)
	if err != nil || len(rm) != 1 || rm[0].Op != OpRemove {
		t.Fatalf("remove: %v, %v", rm, err)
	}
	if len(cfg.Statics) != 0 {
		t.Fatal("static not removed")
	}
	if rm, err := cfg.RemoveStaticRoute(uPfx, nh); rm != nil || err != nil {
		t.Errorf("removing absent static should be nil, got %v, %v", rm, err)
	}
}

func TestRouteFilterAddRemove(t *testing.T) {
	cfg := parseC(t)
	add, err := cfg.AddRouteFilter(topology.OSPF, 10, uPfx)
	if err != nil || len(add) != 1 {
		t.Fatalf("add: %v, %v", add, err)
	}
	again, err := cfg.AddRouteFilter(topology.OSPF, 10, uPfx)
	if err != nil || again != nil {
		t.Errorf("duplicate filter should be no-op: %v", again)
	}
	rm, err := cfg.RemoveRouteFilter(topology.OSPF, 10, uPfx)
	if err != nil || len(rm) != 1 {
		t.Fatalf("remove: %v, %v", rm, err)
	}
	none, err := cfg.RemoveRouteFilter(topology.OSPF, 10, uPfx)
	if err != nil || none != nil {
		t.Errorf("removing absent filter should be no-op: %v", none)
	}
}

func TestRedistributeAddRemove(t *testing.T) {
	cfg, err := Parse("t", "hostname t\nrouter ospf 1\nrouter bgp 2\n")
	if err != nil {
		t.Fatal(err)
	}
	add, err := cfg.AddRedistribute(topology.OSPF, 1, topology.BGP, 2)
	if err != nil || len(add) != 1 {
		t.Fatalf("add: %v, %v", add, err)
	}
	rm, err := cfg.RemoveRedistribute(topology.OSPF, 1, topology.BGP, 2)
	if err != nil || len(rm) != 1 {
		t.Fatalf("remove: %v, %v", rm, err)
	}
}

func TestSetInterfaceCost(t *testing.T) {
	cfg := parseB(t)
	ch, err := cfg.SetInterfaceCost("Ethernet0/2", 3)
	if err != nil || len(ch) != 1 || ch[0].Op != OpAdd {
		t.Fatalf("set cost: %v, %v", ch, err)
	}
	ch, err = cfg.SetInterfaceCost("Ethernet0/2", 7)
	if err != nil || len(ch) != 1 || ch[0].Op != OpModify {
		t.Fatalf("modify cost: %v, %v", ch, err)
	}
	ch, err = cfg.SetInterfaceCost("Ethernet0/2", 7)
	if err != nil || ch != nil {
		t.Errorf("same cost should be no-op: %v", ch)
	}
	if _, err := cfg.SetInterfaceCost("NOPE", 1); err == nil {
		t.Error("missing interface should error")
	}
}

func TestLineChangeString(t *testing.T) {
	lc := LineChange{Device: "B", Op: OpAdd, Section: "router ospf 10", Line: "passive-interface e0"}
	if got := lc.String(); got != "+ B [router ospf 10]: passive-interface e0" {
		t.Errorf("LineChange.String() = %q", got)
	}
	top := LineChange{Device: "B", Op: OpRemove, Line: "ip route ..."}
	if got := top.String(); got != "- B: ip route ..." {
		t.Errorf("LineChange.String() = %q", got)
	}
}

func TestMutatedConfigsReparseAndExtract(t *testing.T) {
	configs, err := ParseFigure2a()
	if err != nil {
		t.Fatal(err)
	}
	// Apply the paper's Figure 2d repair: static route on A toward C for T
	// with distance above OSPF's, and enable nothing else.
	var a *Config
	for _, c := range configs {
		if c.Hostname == "A" {
			a = c
		}
	}
	a.AddStaticRoute(tPfx, netip.MustParseAddr("10.0.2.3"), 120)
	var reparsed []*Config
	for _, c := range configs {
		rc, err := Parse(c.Hostname, c.Print())
		if err != nil {
			t.Fatalf("%s: %v", c.Hostname, err)
		}
		reparsed = append(reparsed, rc)
	}
	n, err := Extract(reparsed)
	if err != nil {
		t.Fatalf("Extract after mutation: %v", err)
	}
	devA := n.Device("A")
	if len(devA.Statics) != 1 || devA.Statics[0].Distance != 120 {
		t.Errorf("static route lost in round trip: %+v", devA.Statics)
	}
}
