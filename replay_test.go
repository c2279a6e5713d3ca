package cpr

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/translate"
)

// loadInstance loads a generated workload the way the cpr command loads
// a cprgen directory: from each configuration's printed text, with the
// policies re-parsed against the loaded network.
func loadInstance(t *testing.T, inst *generate.Instance) (*System, map[string]string, []Policy) {
	t.Helper()
	texts := make(map[string]string, len(inst.Configs))
	for name, c := range inst.Configs {
		texts[name] = c.Print()
	}
	sys, err := Load(texts)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sys.ParsePolicies(policy.Format(inst.Policies))
	if err != nil {
		t.Fatal(err)
	}
	return sys, texts, ps
}

// checkPlanReplays applies the plan's lines, then its waypoint lines,
// through config.Config.Apply to a fresh parse of the input texts and
// requires the result to print as the repair's PatchedConfigs, byte for
// byte: the patched configurations are exactly the plan, applied in
// order.
func checkPlanReplays(t *testing.T, label string, texts map[string]string, rep *RepairOutput) {
	t.Helper()
	if rep.Plan == nil {
		t.Fatalf("%s: the repair has no plan", label)
	}
	cfgs := make(map[string]*config.Config, len(texts))
	for name, text := range texts {
		c, err := config.Parse(name, text)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[c.Hostname] = c
	}
	if err := translate.ApplyPlan(cfgs, rep.Plan); err != nil {
		t.Fatalf("%s: the plan does not replay: %v", label, err)
	}
	got := make(map[string]string, len(cfgs))
	for host, c := range cfgs {
		got[host] = c.Print()
	}
	if reflect.DeepEqual(got, rep.PatchedConfigs) {
		return
	}
	hosts := make([]string, 0, len(got))
	for host := range got {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if want, ok := rep.PatchedConfigs[host]; !ok || got[host] != want {
			t.Fatalf("%s: device %s replayed from the plan (%d lines) differs from its patched text:\n%s\n--- patched ---\n%s",
				label, host, rep.Plan.NumLines(), got[host], want)
		}
	}
	t.Fatalf("%s: the patched configurations name %d devices, the plan's replay %d", label, len(rep.PatchedConfigs), len(got))
}

// checkDeviationsRoundTrip requires every class row of st to come back
// from its deviations: DeriveTC(r, the slots at which row r deviates)
// gives row r, so the ACL rule (harc.State.Deviates) is the presence
// rule's inverse on the state.
func checkDeviationsRoundTrip(t *testing.T, label string, h *harc.HARC, st *harc.State) {
	t.Helper()
	derived := st.Clone()
	dev := bitset.New(len(h.Slots))
	for r, tc := range h.TCs {
		for id := range h.Slots {
			dev.Put(id, st.Deviates(r, id))
		}
		derived.DeriveTC(r, dev)
		if !derived.TC[r].Equal(st.TC[r]) {
			t.Errorf("%s: class %s's row does not come back from its deviations", label, tc)
			return
		}
	}
}

// planWorkload is one repair of planWorkloads' population.
type planWorkload struct {
	label string
	inst  *generate.Instance
	opts  Options
}

// planWorkloads returns the population TestEveryPlanReplays and
// TestReadBackDiffersOnlyAtSharedACLs repair: the 24-network data-center
// corpus, the dc-256 preset (seed 7, where compression engages) and the
// broken k=4 fat-tree of seed 11 (every policy class, PC4 included) at
// both granularities.
func planWorkloads(t *testing.T) []planWorkload {
	t.Helper()
	var cases []planWorkload
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		cases = append(cases, planWorkload{fmt.Sprintf("corpus[%d] %s", i, inst.Name), inst, DefaultOptions()})
	}
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, planWorkload{"dc-256 seed 7", dc, DefaultOptions()})
	for _, g := range []core.Granularity{core.PerDst, core.AllTCs} {
		ft, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 3, PC2: 3, PC3: 3, PC4: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft, 12, 3); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Granularity = g
		cases = append(cases, planWorkload{fmt.Sprintf("fattree k=4 seed 11 %v", g), ft, opts})
	}
	return cases
}

// TestEveryPlanReplays holds every repair of planWorkloads to
// checkPlanReplays, and its repaired state to the presence rule
// (ValidateState) and to checkDeviationsRoundTrip.
func TestEveryPlanReplays(t *testing.T) {
	cases := planWorkloads(t)
	lines, waypoints := 0, 0
	for _, c := range cases {
		sys, texts, ps := loadInstance(t, c.inst)
		rep, err := sys.Repair(ps, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if !rep.Solved() {
			t.Fatalf("%s: repair unsolved", c.label)
		}
		checkPlanReplays(t, c.label, texts, rep)
		if err := sys.HARC.ValidateState(rep.Result.State); err != nil {
			t.Errorf("%s: the repaired state is not closed under the presence rule: %v", c.label, err)
		}
		checkDeviationsRoundTrip(t, c.label, sys.HARC, rep.Result.State)
		lines += rep.Plan.NumLines()
		waypoints += len(rep.Plan.Waypoints)
	}
	if lines == 0 {
		t.Fatal("no workload needed a single changed line: the test replayed nothing")
	}
	t.Logf("%d repairs replayed: %d lines, %d waypoint changes", len(cases), lines, waypoints)
}

// TestReadBackDiffersOnlyAtSharedACLs reads every patched text of
// planWorkloads back (a full HARC of the re-parsed network) and compares
// its state with the repair's own, res.State. They are not equal
// (ROADMAP item 1 (h)): the encoder decides every deny site on its own,
// but the translator edits the access list an interface names, and the
// generators attach one list to several interfaces of a device (every
// data center's SPINE-ACL, every fat-tree's CORE-ACL), so a deny removed
// for one interface is removed for all of them. The test pins that this
// is the only way the two differ: every differing bit is a class bit at a
// deny site whose list is attached to another interface too, and nothing
// else (aETG and destination rows, waypoints, weights) differs. A
// difference it cannot explain so must be listed in unexplained, with its
// reason; the list is empty.
func TestReadBackDiffersOnlyAtSharedACLs(t *testing.T) {
	unexplained := map[string]string{}
	seen := map[string]bool{}
	var differing, textOnly, answerOnly int
	cases := planWorkloads(t)
	for _, c := range cases {
		sys, _, ps := loadInstance(t, c.inst)
		rep, err := sys.Repair(ps, c.opts)
		if err != nil || !rep.Solved() {
			t.Fatalf("%s: solved %v, err %v", c.label, rep != nil && rep.Solved(), err)
		}
		patched, err := Load(rep.PatchedConfigs)
		if err != nil {
			t.Fatal(err)
		}
		got, want := harc.StateOf(patched.HARC), rep.Result.State
		if !got.SameShape(want) {
			t.Errorf("%s: the patched text's slot table differs in shape", c.label)
			continue
		}
		if !got.All.Equal(want.All) || !got.Waypoint.Equal(want.Waypoint) || !got.WeighAlike(want, patched.HARC.Dsts) {
			t.Errorf("%s: the patched text's aETG, waypoints or weights differ from the answer's", c.label)
		}
		for _, dst := range sys.HARC.Dsts {
			if !got.DstBits(dst).Equal(want.DstBits(dst)) {
				t.Errorf("%s: destination %s's row differs from the answer's", c.label, dst.Name)
			}
		}
		for _, tc := range sys.HARC.TCs {
			g, w := got.TCBits(tc), want.TCBits(tc)
			bitset.EachDiff(w, g, func(id int) {
				differing++
				if g.Has(id) {
					textOnly++
				} else {
					answerOnly++
				}
				if sharedDenySite(patched.Network, sys.HARC.Slots[id]) {
					return
				}
				key := fmt.Sprintf("%s: %s at %s", c.label, tc, sys.HARC.Slots[id].Key())
				seen[key] = true
				if unexplained[key] == "" {
					t.Errorf("%s: the patched text and the answer differ at a deny site no other interface shares", key)
				}
			})
		}
	}
	for key := range unexplained {
		if !seen[key] {
			t.Errorf("%s is listed as unexplained but no longer differs", key)
		}
	}
	t.Logf("%d repairs read back: %d class bits differ, %d present only in the text, %d only in the answer",
		len(cases), differing, textOnly, answerOnly)
}

// sharedDenySite reports whether slot s's deny site (arc.Slot.DenySite),
// read on network n, names an access list that another interface of the
// same device also uses.
func sharedDenySite(n *Network, s *arc.Slot) bool {
	intf, dir := s.DenySite()
	if intf == nil {
		return false
	}
	d := n.Device(intf.Device.Name)
	if d == nil || d.Interface(intf.Name) == nil {
		return false
	}
	site := d.Interface(intf.Name)
	acl := site.InACL
	if dir == "out" {
		acl = site.OutACL
	}
	if acl == "" {
		return false
	}
	for _, o := range d.Interfaces() {
		if o != site && (o.InACL == acl || o.OutACL == acl) {
			return true
		}
	}
	return false
}

// TestPatchedTextVerifies repairs hand-made inputs that no generator
// emits, at both granularities, requires the plan each input's repair is
// known to write, and re-verifies the spec on a fresh load of the patched
// text, with every always-blocked policy also replayed through the
// forwarding simulator under every set of at most two failed links.
//
// The input is Figure 2a with a filter of T's prefix at A, the gateway of
// both S and R: reaching T from S means removing the filter, and then R's
// traffic to T, which the filter blocked, needs a deny where it enters A
// (DESIGN.md, "The ACL rule").
func TestPatchedTextVerifies(t *testing.T) {
	gatewayFilter := config.Figure2aConfigs()
	gatewayFilter["A"] = strings.Replace(gatewayFilter["A"], "router ospf 10\n",
		"router ospf 10\n distribute-list prefix 10.20.0.0/16 in\n", 1)
	// The same filter, and a configured deny of S->T on S's attachment:
	// the original row cannot show the deny, since the filter already
	// removes the attachment.
	doubleBlocked := maps.Clone(gatewayFilter)
	doubleBlocked["A"] = strings.Replace(doubleBlocked["A"], " description Subnet-S\n",
		" description Subnet-S\n ip access-group BLOCK-ST in\n", 1) +
		"!\nip access-list extended BLOCK-ST\n deny ip 10.30.0.0 0.0.255.255 10.20.0.0 0.0.255.255\n permit ip any any\n"
	inputs := []struct {
		label   string
		configs map[string]string
		spec    string
		plan    string
	}{
		{"figure2a+gateway-filter", gatewayFilter, "reachable S T 1\nalways-blocked R T\n",
			"- A [router ospf 10]: distribute-list prefix 10.20.0.0/16 in\n" +
				"+ A [ip access-list extended CPR-Ethernet0/3-in]: deny ip 10.10.0.0 0.0.255.255 10.20.0.0 0.0.255.255\n" +
				"+ A [ip access-list extended CPR-Ethernet0/3-in]: permit ip any any\n" +
				"+ A [interface Ethernet0/3]: ip access-group CPR-Ethernet0/3-in in\n"},
		{"figure2a+gateway-filter+source-deny", doubleBlocked, "reachable S T 1\n",
			"- A [router ospf 10]: distribute-list prefix 10.20.0.0/16 in\n" +
				"- A [ip access-list extended BLOCK-ST]: deny ip 10.30.0.0 0.0.255.255 10.20.0.0 0.0.255.255\n"},
	}
	for _, in := range inputs {
		for _, g := range []core.Granularity{core.PerDst, core.AllTCs} {
			key := fmt.Sprintf("%s %v", in.label, g)
			sys, err := Load(in.configs)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := sys.ParsePolicies(in.spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Granularity = g
			rep, err := sys.Repair(ps, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !rep.Solved() {
				t.Errorf("%s: repair unsolved", key)
				continue
			}
			if got := rep.Plan.String(); got != in.plan {
				t.Errorf("%s: the plan is\n%swant\n%s", key, got, in.plan)
			}
			patched, err := Load(rep.PatchedConfigs)
			if err != nil {
				t.Fatalf("%s: the patched text does not load: %v", key, err)
			}
			pps, err := patched.ParsePolicies(in.spec)
			if err != nil {
				t.Fatal(err)
			}
			if violated := patched.Verify(pps); len(violated) != 0 {
				t.Errorf("%s: reported solved, but the patched text violates %v", key, violated)
			}
			for _, p := range pps {
				if p.Kind == policy.AlwaysBlocked && !simulate.BlockedUnderFailures(patched.Network, p.TC, 2) {
					t.Errorf("%s: the patched text delivers %s under some set of at most two failed links", key, p.TC)
				}
			}
		}
	}
}

// sameDevice reports whether the class's source and destination subnets
// attach to one router.
func sameDevice(n *Network, tc TrafficClass) bool {
	for _, d := range n.Devices() {
		src, dst := false, false
		for _, intf := range d.Interfaces() {
			src = src || intf.Subnet == tc.Src
			dst = dst || intf.Subnet == tc.Dst
		}
		if src && dst {
			return true
		}
	}
	return false
}

// TestCorpusPC1Replay repairs all 96 corpus networks with the default
// options and replays every originally violated PC1 and PC3 policy on the
// patched text through the forwarding simulator.
//
// PC1 must hold under every set of at most two failed links. The tcETG
// has no same-device delivery: ARC routes such a class out through the
// fabric and back, the repair blocks that detour with fabric ACLs, and
// the router still delivers the traffic locally. knownDelivered lists
// those wrong patches exactly — each a same-device class — so a new one
// fails the test, and so does a fixed one until it leaves the list.
//
// PC3 must hold in its path-set reading (simulate.ReachableBySteering);
// knownUnsteerable lists the classes that do not, the same way. The test
// also logs how many of them plain forwarding drops under some set of at
// most K-1 failed links: what a delivery reading of the policy would
// reject.
func TestCorpusPC1Replay(t *testing.T) {
	if testing.Short() {
		t.Skip("repairs and replays the 96-network corpus")
	}
	knownDelivered := map[string]bool{
		"dc10 net17->net8": true, "dc10 net9->net18": true,
		"dc40 net3->net4":  true,
		"dc44 net18->net1": true,
		"dc56 net10->net0": true, "dc56 net19->net9": true,
		"dc74 net13->net1": true,
		"dc89 net15->net3": true, "dc89 net6->net12": true,
		"dc94 net17->net12": true,
	}
	knownUnsteerable := map[string]bool{}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 96, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	replayed, delivered := 0, map[string]bool{}
	replayedPC3, unsteerable, dropped := 0, map[string]bool{}, 0
	for _, inst := range corpus {
		sys, _, ps := loadInstance(t, inst)
		violated := sys.Verify(ps)
		rep, err := sys.Repair(ps, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		patched, err := Load(rep.PatchedConfigs)
		if err != nil {
			t.Fatalf("%s: the patched text does not load: %v", inst.Name, err)
		}
		for _, p := range violated {
			tc := TrafficClass{Src: patched.Network.Subnet(p.TC.Src.Name), Dst: patched.Network.Subnet(p.TC.Dst.Name)}
			key := fmt.Sprintf("%s %s", inst.Name, tc)
			switch p.Kind {
			case AlwaysBlocked:
				replayed++
				if simulate.BlockedUnderFailures(patched.Network, tc, 2) {
					continue
				}
				delivered[key] = true
				switch {
				case !knownDelivered[key]:
					t.Errorf("%s: repaired, but the simulator delivers it under at most 2 failed links", key)
				case !sameDevice(sys.Network, p.TC):
					t.Errorf("%s: listed as a same-device class, but its subnets attach to different routers", key)
				}
			case KReachable:
				replayedPC3++
				if !simulate.DeliveredUnderAllFailures(patched.Network, tc, p.K) {
					dropped++
				}
				if simulate.ReachableBySteering(patched.Network, tc, p.K) {
					continue
				}
				unsteerable[key] = true
				if !knownUnsteerable[key] {
					t.Errorf("%s: repaired to be %d-reachable, but no steering reaches it under some set of at most %d failed links", key, p.K, p.K-1)
				}
			}
		}
	}
	for key := range knownDelivered {
		if !delivered[key] {
			t.Errorf("%s: listed as delivered after repair, but the simulator blocks it now: take it off the list", key)
		}
	}
	for key := range knownUnsteerable {
		if !unsteerable[key] {
			t.Errorf("%s: listed as unreachable after repair, but steering reaches it now: take it off the list", key)
		}
	}
	t.Logf("%d violated PC1 policies replayed, %d delivered after repair", replayed, len(delivered))
	t.Logf("%d violated PC3 policies replayed, %d unreachable by steering; plain forwarding drops %d under some set of at most K-1 failed links",
		replayedPC3, len(unsteerable), dropped)
}
