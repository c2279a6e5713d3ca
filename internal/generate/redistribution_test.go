package generate

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
	"repro/internal/topology"
	"repro/internal/translate"
)

// redistributionNetwork: border router M runs OSPF toward A (where NET1
// lives) and BGP toward B (where NET2 lives). Without redistribution on
// M, routes do not cross protocols and the two subnets cannot reach each
// other.
func redistributionConfigs() map[string]string {
	return map[string]string{
		"A": `hostname A
!
interface eth0
 description Link-to-M
 ip address 10.0.1.1 255.255.255.0
!
interface eth1
 description Subnet-NET1
 ip address 20.0.1.1 255.255.255.0
!
router ospf 1
 redistribute connected
 passive-interface eth1
 network 10.0.0.0 0.255.255.255 area 0
`,
		"B": `hostname B
!
interface eth0
 description Link-to-M
 ip address 10.0.2.1 255.255.255.0
!
interface eth1
 description Subnet-NET2
 ip address 20.0.2.1 255.255.255.0
!
router bgp 65002
 redistribute connected
 neighbor 10.0.2.2 remote-as 65000
`,
		"M": `hostname M
!
interface eth0
 description Link-to-A
 ip address 10.0.1.2 255.255.255.0
!
interface eth1
 description Link-to-B
 ip address 10.0.2.2 255.255.255.0
!
router ospf 1
 network 10.0.1.0 0.0.0.255 area 0
!
router bgp 65000
 neighbor 10.0.2.1 remote-as 65002
`,
	}
}

func loadRedistribution(t *testing.T) (map[string]*config.Config, *topology.Network) {
	t.Helper()
	cfgs := map[string]*config.Config{}
	var parsed []*config.Config
	for name, text := range redistributionConfigs() {
		c, err := config.Parse(name, text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfgs[name] = c
		parsed = append(parsed, c)
	}
	n, err := config.Extract(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs, n
}

func TestRedistributionInitiallyUnreachable(t *testing.T) {
	_, n := loadRedistribution(t)
	h := harc.Build(n)
	tc := topology.TrafficClass{Src: n.Subnet("NET1"), Dst: n.Subnet("NET2")}
	p := policy.Policy{Kind: policy.KReachable, K: 1, TC: tc}
	if policy.Check(h, p) {
		t.Fatal("NET1 should not reach NET2 without redistribution on M")
	}
}

// TestRedistributionRepair: in all-tcs mode the minimal repair enables
// redistribution between M's processes (Table 3's aETG intra-device
// row); per-dst falls back to static routes on M.
func TestRedistributionRepair(t *testing.T) {
	for _, gran := range []core.Granularity{core.AllTCs, core.PerDst} {
		cfgs, n := loadRedistribution(t)
		h := harc.Build(n)
		tc := topology.TrafficClass{Src: n.Subnet("NET1"), Dst: n.Subnet("NET2")}
		rev := topology.TrafficClass{Src: n.Subnet("NET2"), Dst: n.Subnet("NET1")}
		ps := []policy.Policy{
			{Kind: policy.KReachable, K: 1, TC: tc},
			{Kind: policy.KReachable, K: 1, TC: rev},
		}
		opts := core.DefaultOptions()
		opts.Granularity = gran
		// Pin the linear engine: the instance has two equal-cost optima
		// (enable redistribution vs. add static routes), and which one a
		// MaxSAT engine's deterministic search lands on is a tie-break.
		// Linear descent finds the redistribution repair this test is
		// about; TestRedistributionRepairCostAcrossAlgorithms below checks
		// every engine agrees on the cost.
		opts.Algorithm = maxsat.LinearDescent
		res, err := core.Repair(h, ps, opts)
		if err != nil {
			t.Fatalf("%v: %v", gran, err)
		}
		if !res.Solved {
			t.Fatalf("%v: unsolved: %+v", gran, res.Stats)
		}
		if bad := core.VerifyRepair(h, res.State, ps); len(bad) != 0 {
			t.Fatalf("%v: still violates %v", gran, bad)
		}
		orig := harc.StateOf(h)
		plan, err := translate.Translate(h, orig, res.State, cfgs)
		if err != nil {
			t.Fatalf("%v: translate: %v", gran, err)
		}
		text := plan.String()
		if gran == core.AllTCs && !strings.Contains(text, "redistribute") {
			t.Errorf("all-tcs repair should enable redistribution:\n%s", text)
		}
		if gran == core.PerDst && !strings.Contains(text, "ip route") {
			t.Errorf("per-dst repair should add static routes:\n%s", text)
		}
		// Rebuild and verify.
		inst := &Instance{Name: "redist", Configs: cfgs, Policies: ps}
		if err := inst.Rebuild(); err != nil {
			t.Fatalf("%v: rebuild: %v", gran, err)
		}
		if bad := inst.Violations(); len(bad) != 0 {
			t.Errorf("%v: rebuilt network violates %v; plan:\n%s", gran, bad, text)
		}
		t.Logf("%v (%d lines):\n%s", gran, plan.NumLines(), text)
	}
}

// TestRedistributionRepairCostAcrossAlgorithms: the redistribution
// instance has several equal-cost optima, and the engines may land on
// different ones — but both exact engines must agree on the optimum
// cost, and every repair must verify.
func TestRedistributionRepairCostAcrossAlgorithms(t *testing.T) {
	costs := map[maxsat.Algorithm]int{}
	for _, algo := range []maxsat.Algorithm{maxsat.LinearDescent, maxsat.OLL} {
		_, n := loadRedistribution(t)
		h := harc.Build(n)
		tc := topology.TrafficClass{Src: n.Subnet("NET1"), Dst: n.Subnet("NET2")}
		rev := topology.TrafficClass{Src: n.Subnet("NET2"), Dst: n.Subnet("NET1")}
		ps := []policy.Policy{
			{Kind: policy.KReachable, K: 1, TC: tc},
			{Kind: policy.KReachable, K: 1, TC: rev},
		}
		opts := core.DefaultOptions()
		opts.Granularity = core.AllTCs
		opts.Algorithm = algo
		res, err := core.Repair(h, ps, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Solved {
			t.Fatalf("%v: unsolved", algo)
		}
		if bad := core.VerifyRepair(h, res.State, ps); len(bad) != 0 {
			t.Fatalf("%v: still violates %v", algo, bad)
		}
		for _, st := range res.Stats {
			costs[algo] += st.Violations
		}
	}
	if costs[maxsat.OLL] != costs[maxsat.LinearDescent] {
		t.Fatalf("engines disagree on the optimum: %v", costs)
	}
}
