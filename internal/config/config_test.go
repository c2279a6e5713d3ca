package config

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestParseFigure1Style(t *testing.T) {
	cfg, err := Parse("C.cfg", Figure2aConfigs()["C"])
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Hostname != "C" {
		t.Errorf("hostname %q, want C", cfg.Hostname)
	}
	if len(cfg.Interfaces) != 3 {
		t.Fatalf("interfaces = %d, want 3", len(cfg.Interfaces))
	}
	e1 := cfg.Interface("Ethernet0/1")
	if e1 == nil || e1.Address.String() != "10.0.2.3/24" {
		t.Errorf("Ethernet0/1 address wrong: %+v", e1)
	}
	r := cfg.Router(topology.OSPF, 10)
	if r == nil {
		t.Fatal("router ospf 10 missing")
	}
	if len(r.Passive) != 2 || r.Passive[0] != "Ethernet0/1" {
		t.Errorf("passive interfaces wrong: %v", r.Passive)
	}
	if len(r.Redistribute) != 1 || r.Redistribute[0].Source != "connected" {
		t.Errorf("redistribute wrong: %v", r.Redistribute)
	}
}

func TestParseACL(t *testing.T) {
	cfg, err := Parse("B.cfg", Figure2aConfigs()["B"])
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	acl := cfg.ACL("BLOCK-U")
	if acl == nil {
		t.Fatal("ACL BLOCK-U missing")
	}
	if len(acl.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(acl.Entries))
	}
	if acl.Entries[0].Permit {
		t.Error("first entry should deny")
	}
	if acl.Entries[0].Dst.String() != "10.40.0.0/16" {
		t.Errorf("deny dst = %s, want 10.40.0.0/16", acl.Entries[0].Dst)
	}
	if acl.Entries[0].Src.IsValid() {
		t.Error("deny src should be any")
	}
	if !acl.Entries[1].Permit || acl.Entries[1].Src.IsValid() || acl.Entries[1].Dst.IsValid() {
		t.Error("second entry should be permit ip any any")
	}
}

func TestParseStaticRoute(t *testing.T) {
	cfg, err := Parse("t.cfg", `hostname t
ip route 10.20.0.0 255.255.0.0 10.0.2.3 5
ip route 10.40.0.0 255.255.0.0 10.0.1.2
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(cfg.Statics) != 2 {
		t.Fatalf("statics = %d, want 2", len(cfg.Statics))
	}
	if cfg.Statics[0].Prefix.String() != "10.20.0.0/16" || cfg.Statics[0].Distance != 5 {
		t.Errorf("static[0] wrong: %+v", cfg.Statics[0])
	}
	if cfg.Statics[1].Distance != 0 {
		t.Errorf("default distance should parse as 0, got %d", cfg.Statics[1].Distance)
	}
}

func TestParseBGPNeighbor(t *testing.T) {
	cfg, err := Parse("t.cfg", `hostname t
interface e0
 ip address 10.0.1.1 255.255.255.0
router bgp 65001
 neighbor 10.0.1.2 remote-as 65002
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r := cfg.Router(topology.BGP, 65001)
	if r == nil || len(r.Neighbors) != 1 || r.Neighbors[0].RemoteAS != 65002 {
		t.Fatalf("BGP neighbor wrong: %+v", r)
	}
}

func TestParseDistributeList(t *testing.T) {
	cfg, err := Parse("t.cfg", `hostname t
router ospf 1
 distribute-list prefix 10.20.0.0/16 in
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r := cfg.Router(topology.OSPF, 1)
	if len(r.DistributeListIn) != 1 || r.DistributeListIn[0].String() != "10.20.0.0/16" {
		t.Fatalf("distribute-list wrong: %v", r.DistributeListIn)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"missing hostname", "interface e0\n"},
		{"bad statement", "hostname t\nbogus stuff\n"},
		{"bad address", "hostname t\ninterface e0\n ip address nope 255.0.0.0\n"},
		{"bad mask", "hostname t\ninterface e0\n ip address 10.0.0.1 255.0.255.0\n"},
		{"bad wildcard", "hostname t\nip access-list extended A\n deny ip any 10.0.0.0 0.255.0.255\n"},
		{"bad acl verb", "hostname t\nip access-list extended A\n frobnicate ip any any\n"},
		{"bad route", "hostname t\nip route 10.0.0.0\n"},
		{"bad router proto", "hostname t\nrouter eigrp 1\n"},
		{"bad router stmt", "hostname t\nrouter ospf 1\n frobnicate\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.name, tc.text); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestParseErrorHasLocation(t *testing.T) {
	_, err := Parse("x.cfg", "hostname t\nbogus\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.File != "x.cfg" || pe.Line != 2 {
		t.Errorf("location %s:%d, want x.cfg:2", pe.File, pe.Line)
	}
	if !strings.Contains(pe.Error(), "x.cfg:2") {
		t.Errorf("Error() should contain location: %s", pe.Error())
	}
}

// TestParseErrorNamesItsLine pins the line a bad sub-statement is
// reported at: its own (line 4 here), for each kind of block, though the
// block goes on for two more lines and a "!". An edit Apply refuses is
// line 1 of "apply(<device>)".
func TestParseErrorNamesItsLine(t *testing.T) {
	for _, tc := range []struct{ block, bad, rest, msg string }{
		{"interface e0", " ip ospf cost x", " description d\n shutdown", `bad ospf cost "x"`},
		{"router ospf 1", " network 10.0.0.0 0.0.0.255 area x", " passive-interface e0\n redistribute connected", `bad area "x"`},
		{"ip access-list extended A", " permit ip any", " deny ip any any\n permit ip any any", "ACL entry missing target"},
	} {
		text := "hostname t\n!\n" + tc.block + "\n" + tc.bad + "\n" + tc.rest + "\n!\n"
		_, err := Parse("a.cfg", text)
		if want := "a.cfg:4: " + tc.msg; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", tc.block, err, want)
		}
	}
	c, err := Parse("t.cfg", "hostname t\ninterface e0\n")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Apply(LineChange{Device: "t", Op: OpAdd, Section: "interface e0", Line: "ip ospf cost x"})
	if want := `apply(t):1: bad ospf cost "x"`; err == nil || err.Error() != want {
		t.Errorf("Apply: error %v, want %s", err, want)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	for name, text := range Figure2aConfigs() {
		cfg, err := Parse(name, text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		printed := cfg.Print()
		cfg2, err := Parse(name+"-reprint", printed)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", name, err, printed)
		}
		if cfg2.Print() != printed {
			t.Errorf("%s: print/parse/print not a fixpoint", name)
		}
	}
}

func TestExtractFigure2a(t *testing.T) {
	configs, err := ParseFigure2a()
	if err != nil {
		t.Fatalf("ParseFigure2a: %v", err)
	}
	n, err := Extract(configs)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if n.NumDevices() != 3 {
		t.Fatalf("devices = %d, want 3", n.NumDevices())
	}
	if len(n.Links) != 3 {
		t.Fatalf("links = %d, want 3", len(n.Links))
	}
	if len(n.Subnets) != 4 {
		t.Fatalf("subnets = %d, want 4", len(n.Subnets))
	}
	if !n.Link("B", "C").Waypoint {
		t.Error("B-C link should have waypoint (from B's interface)")
	}
	c := n.Device("C")
	pc := c.Process(topology.OSPF, 10)
	if pc == nil {
		t.Fatal("C ospf process missing")
	}
	if !pc.IsPassive(c.Interface("Ethernet0/1")) {
		t.Error("C Ethernet0/1 should be passive")
	}
	// The OSPF network statement must not select host-facing subnets
	// outside 10.0.0.0/8... it selects all 10/8; subnet interfaces are in
	// the process but passive.
	if len(pc.Interfaces) != 3 {
		t.Errorf("C process interfaces = %d, want 3", len(pc.Interfaces))
	}
	b := n.Device("B")
	acl := b.ACLs["BLOCK-U"]
	if acl == nil {
		t.Fatal("BLOCK-U missing after extraction")
	}
	u := n.Subnet("U")
	s := n.Subnet("S")
	if !acl.Blocks(s.Prefix, u.Prefix) {
		t.Error("extracted ACL should block S->U")
	}
	if !b.Process(topology.OSPF, 10).RedistributeConnected {
		t.Error("redistribute connected lost in extraction")
	}
}

func TestExtractMatchesHandBuiltFixture(t *testing.T) {
	configs, err := ParseFigure2a()
	if err != nil {
		t.Fatal(err)
	}
	fromCfg, err := Extract(configs)
	if err != nil {
		t.Fatal(err)
	}
	hand := topology.Figure2a()
	// Compare the observable structure: same devices, links, subnets, and
	// passive flags.
	if fromCfg.NumDevices() != hand.NumDevices() {
		t.Errorf("device count mismatch: %d vs %d", fromCfg.NumDevices(), hand.NumDevices())
	}
	if len(fromCfg.Links) != len(hand.Links) {
		t.Errorf("link count mismatch: %d vs %d", len(fromCfg.Links), len(hand.Links))
	}
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		lc := fromCfg.Link(pair[0], pair[1])
		lh := hand.Link(pair[0], pair[1])
		if (lc == nil) != (lh == nil) {
			t.Errorf("link %v presence mismatch", pair)
			continue
		}
		if lc.Waypoint != lh.Waypoint {
			t.Errorf("link %v waypoint mismatch", pair)
		}
	}
	for _, s := range hand.Subnets {
		if got := fromCfg.Subnet(s.Name); got == nil || got.Prefix != s.Prefix {
			t.Errorf("subnet %s mismatch", s.Name)
		}
	}
}

func TestExtractErrors(t *testing.T) {
	mk := func(texts ...string) []*Config {
		var cfgs []*Config
		for i, txt := range texts {
			cfg, err := Parse("t", txt)
			if err != nil {
				t.Fatalf("cfg %d: %v", i, err)
			}
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	// Duplicate hostname.
	if _, err := Extract(mk("hostname x\n", "hostname x\n")); err == nil {
		t.Error("duplicate hostname should fail")
	}
	// Three interfaces on one network.
	threeWay := []string{
		"hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n",
		"hostname b\ninterface e0\n ip address 10.0.0.2 255.255.255.0\n",
		"hostname c\ninterface e0\n ip address 10.0.0.3 255.255.255.0\n",
	}
	if _, err := Extract(mk(threeWay...)); err == nil {
		t.Error("three-endpoint network should fail")
	}
	// Missing redistribution source.
	if _, err := Extract(mk("hostname a\nrouter ospf 1\n redistribute bgp 2\n")); err == nil {
		t.Error("missing redistribution source should fail")
	}
	// Missing ACL reference.
	if _, err := Extract(mk("hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n ip access-group NOPE in\n")); err == nil {
		t.Error("missing ACL should fail")
	}
}

func TestExtractShutdownInterfaceIgnored(t *testing.T) {
	cfgs := []*Config{}
	for _, txt := range []string{
		"hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n shutdown\n",
		"hostname b\ninterface e0\n ip address 10.0.0.2 255.255.255.0\n",
	} {
		cfg, err := Parse("t", txt)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	n, err := Extract(cfgs)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(n.Links) != 0 {
		t.Error("shutdown interface should not form a link")
	}
}

func TestMaskHelpers(t *testing.T) {
	if maskFromBits(24).String() != "255.255.255.0" {
		t.Errorf("maskFromBits(24) = %s", maskFromBits(24))
	}
	if maskFromBits(0).String() != "0.0.0.0" {
		t.Errorf("maskFromBits(0) = %s", maskFromBits(0))
	}
	if wildcardFromBits(24).String() != "0.0.0.255" {
		t.Errorf("wildcardFromBits(24) = %s", wildcardFromBits(24))
	}
	if wildcardFromBits(0).String() != "255.255.255.255" {
		t.Errorf("wildcardFromBits(0) = %s", wildcardFromBits(0))
	}
	for _, bits := range []int{0, 1, 8, 16, 24, 31, 32} {
		got, ok := maskBits(maskFromBits(bits))
		if !ok || got != bits {
			t.Errorf("maskBits(maskFromBits(%d)) = %d, %v", bits, got, ok)
		}
	}
}

func TestWildcardMatch(t *testing.T) {
	base := netip.MustParseAddr("10.0.0.0")
	wild := netip.MustParseAddr("0.255.255.255")
	if !wildcardMatch(base, wild, netip.MustParseAddr("10.1.2.3")) {
		t.Error("10.1.2.3 should match 10.0.0.0/0.255.255.255")
	}
	if wildcardMatch(base, wild, netip.MustParseAddr("11.0.0.1")) {
		t.Error("11.0.0.1 should not match")
	}
}
