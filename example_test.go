package cpr_test

import (
	"fmt"
	"log"
	"strings"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/translate"
)

// The paper's running example (§2.2, Figures 1-4): load the three-router
// network of Figure 2a, check the four example policies EP1-EP4, compute
// a minimal repair for the violated EP3 (S must reach T despite any single
// link failure), print the patch, and re-verify the patched network.
func Example_quickstart() {
	const spec = `# The four §2.2 policies:
# EP1: traffic from S to U is always blocked
always-blocked S U
# EP2: traffic from S to T always traverses a firewall
always-waypoint S T
# EP3: S can reach T as long as there is at most one link failure
reachable S T 2
# EP4: with no failures, traffic from R to T uses A -> B -> C
primary-path R T A,B,C
`
	sys, err := cpr.Load(config.Figure2aConfigs())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d routers, %d subnets, %d links\n\n",
		sys.Network.NumDevices(), len(sys.Network.Subnets), len(sys.Network.Links))

	policies, err := sys.ParsePolicies(spec)
	if err != nil {
		log.Fatal(err)
	}
	violated := sys.Verify(policies)
	fmt.Printf("%d of %d policies violated:\n", len(violated), len(policies))
	for _, p := range violated {
		fmt.Println("  ✗", p)
	}

	rep, err := sys.Repair(policies, cpr.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Solved() {
		log.Fatal("no repair exists for this specification")
	}
	// Figure 2d repairs EP3 with "two lines plus a firewall".
	fmt.Printf("\nrepair: %d configuration lines, %d middlebox placements\n",
		rep.Plan.NumLines(), len(rep.Plan.Waypoints))
	fmt.Print(rep.Plan)

	// Reload the patched configurations and confirm every policy holds.
	fixed, err := cpr.Load(rep.PatchedConfigs)
	if err != nil {
		log.Fatal(err)
	}
	fixedPolicies, err := fixed.ParsePolicies(spec)
	if err != nil {
		log.Fatal(err)
	}
	if bad := fixed.Verify(fixedPolicies); len(bad) != 0 {
		log.Fatalf("patched network still violates %v", bad)
	}
	fmt.Println("\npatched network satisfies all four policies ✓")

	fmt.Println("\nrouter A after the repair:")
	fmt.Print(rep.PatchedConfigs["A"])
	// Output:
	// network: 3 routers, 4 subnets, 3 links
	//
	// 1 of 4 policies violated:
	//   ✗ reachable S T 2
	//
	// repair: 1 configuration lines, 1 middlebox placements
	// + A: ip route 10.20.0.0 255.255.0.0 10.0.2.3 3
	// add waypoint on link A-C
	//
	// patched network satisfies all four policies ✓
	//
	// router A after the repair:
	// hostname A
	// !
	// interface Ethernet0/1
	//  description Link-to-B
	//  ip address 10.0.1.1 255.255.255.0
	// !
	// interface Ethernet0/2
	//  description Link-to-C
	//  ip address 10.0.2.1 255.255.255.0
	//  waypoint
	// !
	// interface Ethernet0/3
	//  description Subnet-R
	//  ip address 10.10.0.1 255.255.0.0
	// !
	// interface Ethernet0/4
	//  description Subnet-S
	//  ip address 10.30.0.1 255.255.0.0
	// !
	// ip route 10.20.0.0 255.255.0.0 10.0.2.3 3
	// !
	// router ospf 10
	//  redistribute connected
	//  passive-interface Ethernet0/3
	//  passive-interface Ethernet0/4
	//  network 10.0.0.0 0.255.255.255 area 0
}

// Data-center repair versus a hand-written one, the Figure 11 comparison:
// generate one data center in the style of the paper's corpus (leaf-spine,
// about one policy per traffic class, a few violated), repair it with CPR,
// simulate an operator fixing the same violations by hand, and compare the
// two repairs by lines changed and traffic classes impacted.
func Example_datacenter() {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name:    "dc-example",
		Routers: 8, Subnets: 24,
		BlockedFrac:      0.3,
		FullyBlockedDsts: 1,
		Violations:       5,
		Seed:             42,
	})
	if err != nil {
		log.Fatal(err)
	}
	counts := policy.CountByKind(inst.Policies)
	fmt.Printf("%s: %d routers, %d subnets, %d policies (%d PC1 / %d PC3)\n",
		inst.Name, inst.Network.NumDevices(), len(inst.Network.Subnets),
		len(inst.Policies), counts[policy.AlwaysBlocked], counts[policy.KReachable])

	violated := inst.Violations()
	fmt.Printf("\nthe snapshot violates %d policies:\n", len(violated))
	for _, p := range violated {
		fmt.Println("  ✗", p)
	}

	// CPR's repair.
	h := inst.Harc()
	orig := harc.StateOf(h)
	res, err := core.Repair(h, inst.Policies, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if !res.Solved {
		log.Fatal("CPR found no repair")
	}
	cfgs, err := translate.CloneConfigs(inst.Configs)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := translate.Translate(h, orig, res.State, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	cprImpact := len(translate.ImpactedTCs(h, orig, res.State))

	// The simulated operator's repair of the same violations.
	op, err := generate.SimulateOperator(inst, 43)
	if err != nil {
		log.Fatal(err)
	}

	total := len(h.TCs)
	fmt.Printf("\n%-22s %12s %18s\n", "", "lines", "TCs impacted")
	fmt.Printf("%-22s %12d %11d (%.1f%%)\n", "CPR", plan.NumLines(), cprImpact,
		100*float64(cprImpact)/float64(total))
	fmt.Printf("%-22s %12d %11d (%.1f%%)\n", "hand-written", op.Lines, op.ImpactedTCs,
		100*float64(op.ImpactedTCs)/float64(total))

	fmt.Println("\nCPR's patch:")
	fmt.Print(plan)
	// Output:
	// dc-example: 8 routers, 24 subnets, 552 policies (165 PC1 / 387 PC3)
	//
	// the snapshot violates 5 policies:
	//   ✗ reachable net3 net1 2
	//   ✗ reachable net4 net14 2
	//   ✗ always-blocked net7 net12
	//   ✗ reachable net11 net13 2
	//   ✗ reachable net12 net15 2
	//
	//                               lines       TCs impacted
	// CPR                               7           5 (0.9%)
	// hand-written                      5           5 (0.9%)
	//
	// CPR's patch:
	// - leaf3 [ip access-list extended HOST-net15]: deny ip 20.0.12.0 0.0.0.255 20.0.15.0 0.0.0.255
	// + leaf1 [ip access-list extended CPR-eth3-in]: deny ip 20.0.7.0 0.0.0.255 20.0.12.0 0.0.0.255
	// + leaf1 [ip access-list extended CPR-eth3-in]: permit ip any any
	// + leaf1 [interface eth3]: ip access-group CPR-eth3-in in
	// - leaf1 [ip access-list extended HOST-net1]: deny ip 20.0.3.0 0.0.0.255 20.0.1.0 0.0.0.255
	// - leaf2 [ip access-list extended HOST-net14]: deny ip 20.0.4.0 0.0.0.255 20.0.14.0 0.0.0.255
	// - leaf1 [ip access-list extended HOST-net13]: deny ip 20.0.11.0 0.0.0.255 20.0.13.0 0.0.0.255
}

// The paper's synthetic evaluation scenario (§8): a 4-port fat-tree (20
// routers) with three policies of each class, broken the way the paper
// breaks it (inverted core ACLs, primary-path costs moved to another core
// switch), repaired at both MaxSMT granularities (Figures 8a and 9 in
// miniature). Per-destination solves several small problems; all-tcs
// solves one large one.
func Example_fattree() {
	inst, err := generate.FatTree(generate.FatTreeOptions{
		K: 4, PC1: 3, PC2: 3, PC3: 3, PC4: 3, Seed: 2017,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s: %d routers, %d links, %d policies (3 per class)\n",
		inst.Name, inst.Network.NumDevices(), len(inst.Network.Links), len(inst.Policies))

	if err := generate.BreakFatTree(inst, 2018, 0); err != nil {
		log.Fatal(err)
	}
	violated := inst.Violations()
	fmt.Printf("\nafter breaking the configurations, %d policies are violated:\n", len(violated))
	for _, p := range violated {
		fmt.Println("  ✗", p)
	}

	h := inst.Harc()
	orig := harc.StateOf(h)
	for _, gran := range []core.Granularity{core.PerDst, core.AllTCs} {
		opts := core.DefaultOptions()
		opts.Granularity = gran
		opts.Parallelism = 4
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Solved {
			log.Fatalf("%s: no repair", gran)
		}
		cfgs, err := translate.CloneConfigs(inst.Configs)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := translate.Translate(h, orig, res.State, cfgs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d problems, %d lines changed, %d middleboxes\n",
			gran, len(res.Stats), plan.NumLines(), len(plan.Waypoints))
		for _, st := range res.Stats {
			fmt.Printf("  %-12s %6d vars %5d softs %s\n", st.Label, st.Vars, st.Softs, st.Status)
		}
		fmt.Print(plan)
	}
	// Output:
	// generated fattree-k4: 20 routers, 32 links, 12 policies (3 per class)
	//
	// after breaking the configurations, 6 policies are violated:
	//   ✗ always-blocked h3-0-0 h2-0-0
	//   ✗ always-waypoint h0-0-0 h3-0-0
	//   ✗ reachable h1-0-0 h3-1-0 2
	//   ✗ primary-path h1-0-0 h0-1-0 edge1-0,agg1-0,core0,agg0-0,edge0-1
	//   ✗ primary-path h2-1-0 h1-0-0 edge2-1,agg2-0,core0,agg1-0,edge1-0
	//   ✗ primary-path h0-0-0 h1-1-0 edge0-0,agg0-0,core0,agg1-0,edge1-1
	//
	// maxsmt-per-dst: 4 problems, 10 lines changed, 0 middleboxes
	//   h2-0-0         1193 vars   280 softs sat
	//   h3-0-0          756 vars   194 softs sat
	//   h3-1-0          851 vars   170 softs sat
	//   pc4-merged    26271 vars   832 softs sat
	// + core1 [router ospf 1]: distribute-list prefix 20.0.1.0/24 in
	// + agg3-1 [router ospf 1]: distribute-list prefix 20.0.6.0/24 in
	// ~ core0 [interface eth1]: ip ospf cost 2
	// ~ core1 [interface eth1]: ip ospf cost 14
	// ~ edge1-0 [interface eth1]: ip ospf cost 15
	// - core1 [ip access-list extended CORE-ACL]: deny ip 20.0.2.0 0.0.0.255 20.0.7.0 0.0.0.255
	// - core3 [ip access-list extended CORE-ACL]: deny ip 20.0.2.0 0.0.0.255 20.0.7.0 0.0.0.255
	// + edge2-0 [ip access-list extended CPR-eth2-out]: deny ip 20.0.6.0 0.0.0.255 20.0.4.0 0.0.0.255
	// + edge2-0 [ip access-list extended CPR-eth2-out]: permit ip any any
	// + edge2-0 [interface eth2]: ip access-group CPR-eth2-out out
	//
	// maxsmt-all-tcs: 1 problems, 7 lines changed, 0 middleboxes
	//   all-tcs       30801 vars  1740 softs sat
	// + agg1-0 [router ospf 1]: passive-interface eth3
	// + edge2-0 [router ospf 1]: distribute-list prefix 20.0.4.0/24 in
	// + agg0-1 [router ospf 1]: distribute-list prefix 20.0.6.0/24 in
	// ~ core0 [interface eth0]: ip ospf cost 6
	// ~ core0 [interface eth1]: ip ospf cost 2
	// - core0 [ip access-list extended CORE-ACL]: deny ip 20.0.2.0 0.0.0.255 20.0.7.0 0.0.0.255
	// - core3 [ip access-list extended CORE-ACL]: deny ip 20.0.2.0 0.0.0.255 20.0.7.0 0.0.0.255
}

// Growing a network (§1): the machinery that fixes bugs also integrates
// new gear. A new router D, carrying subnet V, is cabled to router C of
// the Figure 2a network, but its uplink is still passive (the factory
// default). CPR computes the integration patch from the reachability
// requirements alone.
func Example_grow() {
	cfgs := config.Figure2aConfigs()
	// Cable D to C: a new interface stanza on C...
	cfgs["C"] += `!
interface Ethernet0/4
 description Link-to-D
 ip address 10.0.4.3 255.255.255.0
`
	// ...and the new router D, whose uplink is not yet OSPF-active.
	cfgs["D"] = `hostname D
!
interface Ethernet0/1
 description Link-to-C
 ip address 10.0.4.4 255.255.255.0
!
interface Ethernet0/2
 description Subnet-V
 ip address 10.50.0.1 255.255.0.0
!
router ospf 10
 redistribute connected
 passive-interface Ethernet0/1
 passive-interface Ethernet0/2
 network 10.0.0.0 0.255.255.255 area 0
`
	sys, err := cpr.Load(cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network grown to %d routers, %d subnets\n", sys.Network.NumDevices(), len(sys.Network.Subnets))

	const spec = `# Existing intent:
always-blocked S U
always-waypoint S T
primary-path R T A,B,C
# New intent: the new subnet V must be reachable.
reachable S V 1
reachable V S 1
reachable R V 1
`
	policies, err := sys.ParsePolicies(spec)
	if err != nil {
		log.Fatal(err)
	}
	violated := sys.Verify(policies)
	fmt.Printf("\n%d policies violated before integration:\n", len(violated))
	for _, p := range violated {
		fmt.Println("  ✗", p)
	}

	// all-tcs lets the repair touch routing adjacencies — the natural
	// integration is activating D's uplink.
	opts := cpr.DefaultOptions()
	opts.Granularity = cpr.AllTCs
	rep, err := sys.Repair(policies, opts)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Solved() {
		log.Fatal("no integration patch found")
	}
	fmt.Printf("\nintegration patch (%d lines):\n", rep.Plan.NumLines())
	fmt.Print(rep.Plan)

	fixed, err := cpr.Load(rep.PatchedConfigs)
	if err != nil {
		log.Fatal(err)
	}
	fixedPolicies, err := fixed.ParsePolicies(spec)
	if err != nil {
		log.Fatal(err)
	}
	if bad := fixed.Verify(fixedPolicies); len(bad) != 0 {
		log.Fatalf("integrated network violates %v", bad)
	}
	fmt.Println("\nall policies hold on the integrated network ✓")
	// Output:
	// network grown to 4 routers, 5 subnets
	//
	// 3 policies violated before integration:
	//   ✗ reachable S V 1
	//   ✗ reachable V S 1
	//   ✗ reachable R V 1
	//
	// integration patch (1 lines):
	// - D [router ospf 10]: passive-interface Ethernet0/1
	//
	// all policies hold on the integrated network ✓
}

// A policy change (§1): given the current configurations and a new
// specification, the "repair" is the minimal patch that migrates the
// network. In Figure 2a traffic from S to U is deliberately blocked; the
// new intent is that S reaches U even under one link failure, while the
// other policies keep holding.
func Example_policychange() {
	const oldSpec = `always-blocked S U
always-waypoint S T
primary-path R T A,B,C
`
	const newSpec = `# Changed intent: S must now reach U, surviving one link failure.
reachable S U 2
always-waypoint S T
primary-path R T A,B,C
`
	sys, err := cpr.Load(config.Figure2aConfigs())
	if err != nil {
		log.Fatal(err)
	}
	oldPolicies, err := sys.ParsePolicies(oldSpec)
	if err != nil {
		log.Fatal(err)
	}
	if v := sys.Verify(oldPolicies); len(v) != 0 {
		log.Fatalf("network should satisfy the old intent, violates %v", v)
	}
	fmt.Println("current network satisfies the old intent (S->U blocked) ✓")

	newPolicies, err := sys.ParsePolicies(newSpec)
	if err != nil {
		log.Fatal(err)
	}
	violated := sys.Verify(newPolicies)
	fmt.Printf("\nunder the new intent, %d policies are violated:\n", len(violated))
	for _, p := range violated {
		fmt.Println("  ✗", p)
	}

	rep, err := sys.Repair(newPolicies, cpr.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Solved() {
		log.Fatal("no migration patch exists")
	}
	fmt.Printf("\nmigration patch (%d lines, %d middlebox placements):\n",
		rep.Plan.NumLines(), len(rep.Plan.Waypoints))
	fmt.Print(rep.Plan)

	fixed, err := cpr.Load(rep.PatchedConfigs)
	if err != nil {
		log.Fatal(err)
	}
	fixedPolicies, err := fixed.ParsePolicies(newSpec)
	if err != nil {
		log.Fatal(err)
	}
	if bad := fixed.Verify(fixedPolicies); len(bad) != 0 {
		log.Fatalf("migrated network violates %v", bad)
	}
	fmt.Println("\nmigrated network satisfies the new intent ✓")
	// Output:
	// current network satisfies the old intent (S->U blocked) ✓
	//
	// under the new intent, 1 policies are violated:
	//   ✗ reachable S U 2
	//
	// migration patch (2 lines, 0 middlebox placements):
	// + A: ip route 10.40.0.0 255.255.0.0 10.0.2.3 1
	// + B [ip access-list extended BLOCK-U]: permit ip 10.30.0.0 0.0.255.255 10.40.0.0 0.0.255.255
	//
	// migrated network satisfies the new intent ✓
}

// Why-not diagnosis: a counterexample witness for each violated policy —
// the offending path for blocked and waypoint policies, the disconnecting
// failure scenario for reachability, the shortcut taken instead of the
// primary path — on progressively broken variants of Figure 2a.
func Example_whynot() {
	const spec = `always-blocked S U
always-waypoint S T
reachable S T 2
primary-path R T A,B,C
`
	scenarios := []struct {
		title string
		mut   func(map[string]string)
	}{
		{"original network (EP3 is violated)", func(map[string]string) {}},
		{"ACL on B removed (EP1 also violated)", func(cfgs map[string]string) {
			cfgs["B"] = strings.Replace(cfgs["B"], " ip access-group BLOCK-U in\n", "", 1)
		}},
		{"A-C adjacency enabled (EP2 and EP4 also violated)", func(cfgs map[string]string) {
			cfgs["C"] = strings.Replace(cfgs["C"], " passive-interface Ethernet0/1\n", "", 1)
		}},
	}
	for _, sc := range scenarios {
		cfgs := config.Figure2aConfigs()
		sc.mut(cfgs)
		fmt.Printf("== %s ==\n", sc.title)
		sys, err := cpr.Load(cfgs)
		if err != nil {
			log.Fatal(err)
		}
		policies, err := sys.ParsePolicies(spec)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range sys.Explain(policies) {
			fmt.Println("  ✗", l)
		}
	}
	// Output:
	// == original network (EP3 is violated) ==
	//   ✗ reachable S T 2: failing link(s) A-B disconnects the class
	// == ACL on B removed (EP1 also violated) ==
	//   ✗ always-blocked S U: traffic can flow via SRC -> A -> B -> DST
	//   ✗ reachable S T 2: failing link(s) A-B disconnects the class
	// == A-C adjacency enabled (EP2 and EP4 also violated) ==
	//   ✗ always-blocked S U: traffic can flow via SRC -> A -> C -> B -> DST
	//   ✗ always-waypoint S T: waypoint-free path exists via SRC -> A -> C -> DST
	//   ✗ primary-path R T A,B,C: traffic uses A -> C instead of A -> B -> C
}
