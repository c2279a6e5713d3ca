package translate

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/harc"
	"repro/internal/topology"
)

// fullScan is the translator's slow reference: the same construct edits,
// found by scanning every (row, slot) pair instead of walking the bits at
// which the two states differ. It reuses the translator's emit helpers, so
// what it pins is the set of visited pairs and their order.
func fullScan(h *harc.HARC, orig, rep *harc.State, cfgs map[string]*config.Config) (*Plan, error) {
	t := &translator{h: h, orig: orig, rep: rep, cfgs: cfgs, plan: &Plan{}}
	for _, s := range h.Slots { // adjacencies, canonical direction first
		if s.Kind != arc.SlotInterDevice || s.Canon != s.ID || orig.All.Has(s.ID) == rep.All.Has(s.ID) {
			continue
		}
		var err error
		if rep.All.Has(s.ID) {
			err = t.enableAdjacency(s)
		} else {
			err = t.disableAdjacency(s)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, s := range h.Slots { // redistribution
		if s.Kind != arc.SlotIntraRedist || orig.All.Has(s.ID) == rep.All.Has(s.ID) {
			continue
		}
		c := cfgs[s.ToProc.Device.Name]
		var err error
		if rep.All.Has(s.ID) {
			err = t.add(c.AddRedistribute(s.ToProc.Proto, s.ToProc.ID, s.FromProc.Proto, s.FromProc.ID))
		} else {
			err = t.add(c.RemoveRedistribute(s.ToProc.Proto, s.ToProc.ID, s.FromProc.Proto, s.FromProc.ID))
		}
		if err != nil {
			return nil, err
		}
	}
	for r, dst := range h.Dsts { // route filters
		for _, s := range h.Slots {
			if s.Kind != arc.SlotIntraSelf {
				continue
			}
			was, now := orig.RouteFilter[r].Has(s.FromProcID), rep.RouteFilter[r].Has(s.FromProcID)
			if was == now {
				continue
			}
			c, p := cfgs[s.FromProc.Device.Name], s.FromProc
			var err error
			if now {
				err = t.add(c.AddRouteFilter(p.Proto, p.ID, dst.Prefix))
			} else {
				err = t.add(c.RemoveRouteFilter(p.Proto, p.ID, dst.Prefix))
			}
			if err != nil {
				return nil, err
			}
		}
	}
	for r, dst := range h.Dsts { // static routes
		for _, s := range h.Slots {
			if s.Kind != arc.SlotInterDevice {
				continue
			}
			was, now := orig.Static[r].Has(s.ID), rep.Static[r].Has(s.ID)
			c, nh, dist := cfgs[s.FromProc.Device.Name], s.ToIntf.Prefix.Addr(), rep.StaticDistance(r, s.ID)
			var err error
			switch {
			case !was && now:
				err = t.add(c.AddStaticRoute(dst.Prefix, nh, int(dist)))
			case was && !now:
				err = t.add(c.RemoveStaticRoute(dst.Prefix, nh))
			case was && now && orig.StaticDistance(r, s.ID) != dist:
				err = t.add(c.SetStaticDistance(dst.Prefix, nh, int(dist)))
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if err := t.interfaceCosts(); err != nil { // already a slot scan
		return nil, err
	}
	for r, tc := range h.TCs { // ACLs
		d := h.DstRow(tc.Dst)
		origM, newM, origDM, newDM := orig.TC[r], rep.TC[r], orig.Dst[d], rep.Dst[d]
		for id, s := range h.Slots {
			if !s.ApplicableTC(tc) {
				continue
			}
			var addACL, removeACL bool
			var dev *topology.Device
			var intfName, dir string
			switch s.Kind {
			case arc.SlotInterDevice:
				origACL := origDM.Has(id) && !origM.Has(id)
				addACL = newDM.Has(id) && !newM.Has(id) && !origACL
				removeACL = origACL && newM.Has(id)
				dev, intfName, dir = s.ToIntf.Device, s.ToIntf.Name, "in"
			case arc.SlotSource:
				addACL = origM.Has(id) && !newM.Has(id) && !rep.RouteFilter[d].Has(s.ToProcID)
				removeACL = !origM.Has(id) && newM.Has(id)
				dev, intfName, dir = s.Intf.Device, s.Intf.Name, "in"
			case arc.SlotDest:
				origACL := origDM.Has(id) && !origM.Has(id)
				addACL = newDM.Has(id) && !newM.Has(id) && !origACL
				removeACL = origACL && newM.Has(id)
				dev, intfName, dir = s.Intf.Device, s.Intf.Name, "out"
			}
			var err error
			if addACL {
				err = t.add(cfgs[dev.Name].AddACLDeny(intfName, dir, tc.Src.Prefix, tc.Dst.Prefix))
			} else if removeACL {
				err = t.add(cfgs[dev.Name].RemoveACLDeny(intfName, dir, tc.Src.Prefix, tc.Dst.Prefix))
			}
			if err != nil {
				return nil, err
			}
		}
	}
	var changed []int // waypoints, by link name
	for id := range h.Links {
		if orig.Waypoint.Has(id) != rep.Waypoint.Has(id) {
			changed = append(changed, id)
		}
	}
	sort.SliceStable(changed, func(i, j int) bool { return h.Links[changed[i]].Name() < h.Links[changed[j]].Name() })
	for _, id := range changed {
		l := h.Links[id]
		t.plan.Waypoints = append(t.plan.Waypoints, WaypointChange{Link: l.Name(), Add: rep.Waypoint.Has(id)})
		lcs, _ := cfgs[l.A.Device.Name].SetWaypoint(l.A.Name, rep.Waypoint.Has(id))
		t.plan.WaypointLines = append(t.plan.WaypointLines, append([]config.LineChange(nil), lcs...))
	}
	return t.plan, nil
}

// multiProtocolConfigs is Figure 2a's shape with a two-process border
// router, so redistribution and BGP-neighbor edits have slots to land on.
var multiProtocolConfigs = map[string]string{
	"A": `hostname A
!
interface eth0
 description Link-to-M
 ip address 10.0.1.1 255.255.255.0
 ip ospf cost 2
!
interface eth1
 description Subnet-NET1
 ip address 20.0.1.1 255.255.255.0
!
interface eth2
 description Subnet-NET3
 ip address 20.0.3.1 255.255.255.0
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
 redistribute ospf 1
 neighbor 10.0.2.1 remote-as 65002
`,
}

func parseAll(t *testing.T, texts map[string]string) (map[string]*config.Config, *topology.Network) {
	t.Helper()
	cfgs := map[string]*config.Config{}
	var parsed []*config.Config
	for _, name := range []string{"A", "B", "C", "M"} {
		text, ok := texts[name]
		if !ok {
			continue
		}
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

// mutateState flips random bits of every construct kind the translator
// reads. Edits need not be consistent with each other: the translator's
// contract is a function of the two states, whatever they say.
func mutateState(rng *rand.Rand, h *harc.HARC, st *harc.State, kinds map[string]int) {
	flips := 1 + rng.Intn(6)
	for i := 0; i < flips; i++ {
		s := h.Slots[rng.Intn(len(h.Slots))]
		r, d := rng.Intn(len(h.TCs)), rng.Intn(len(h.Dsts))
		switch pick := rng.Intn(7); {
		case pick == 0 && s.Kind == arc.SlotInterDevice: // adjacency: both directions move together
			v := !st.All.Has(s.ID)
			for _, o := range h.Slots {
				if o.Canon == s.Canon {
					st.SetAll(o.ID, v)
				}
			}
			kinds["adjacency"]++
		case pick == 0 && s.Kind == arc.SlotIntraRedist:
			st.SetAll(s.ID, !st.All.Has(s.ID))
			kinds["redistribution"]++
		case pick == 1:
			p := rng.Intn(len(h.Procs))
			st.SetRouteFilter(d, p, !st.RouteFilter[d].Has(p))
			kinds["route-filter"]++
		case pick == 2 && s.Kind == arc.SlotInterDevice:
			st.SetStatic(d, s.ID, !st.Static[d].Has(s.ID))
			kinds["static"]++
		case pick == 3 && s.Kind == arc.SlotInterDevice:
			st.Cost[s.CostKey()] = int64(1 + rng.Intn(9))
			kinds["cost"]++
		case pick == 4 && s.ApplicableTC(h.TCs[r]):
			st.SetTC(r, s.ID, !st.TC[r].Has(s.ID))
			kinds["acl:"+s.Kind.String()]++
		case pick == 5 && s.ApplicableDst(h.Dsts[d]):
			st.SetDst(d, s.ID, !st.Dst[d].Has(s.ID))
			kinds["dst"]++
		case pick == 6:
			l := rng.Intn(len(h.Links))
			st.SetWaypoint(l, !st.Waypoint.Has(l))
			kinds["waypoint"]++
		}
	}
}

// TestDiffWalkMatchesFullScan pins the translator's XOR walk to a scan
// over every (row, slot) pair: identical plans — lines, groups, waypoint
// changes, and their order — on randomly mutated states.
func TestDiffWalkMatchesFullScan(t *testing.T) {
	figure2a, statics := map[string]string{}, map[string]string{}
	for name, text := range config.Figure2aConfigs() {
		figure2a[name], statics[name] = text, text
	}
	// Two destinations' static routes over A's interface toward C (cost 1,
	// adjacency down): one at the interface's cost, one at a distance of
	// its own. Cost edits then move the first route's distance only.
	statics["A"] += "ip route 10.20.0.0 255.255.0.0 10.0.2.3 1\nip route 10.30.0.0 255.255.0.0 10.0.2.3 7\n"
	kinds := map[string]int{}
	compared := 0
	for name, texts := range map[string]map[string]string{"figure2a": figure2a, "figure2a-statics": statics, "multi-protocol": multiProtocolConfigs} {
		_, n := parseAll(t, texts)
		h := harc.BuildLite(n, n.TrafficClasses())
		orig := harc.StateOf(h)
		rng := rand.New(rand.NewSource(int64(len(name))))
		for round := 0; round < 400; round++ {
			rep := orig.Clone()
			mutateState(rng, h, rep, kinds)
			cfgsA, _ := parseAll(t, texts)
			cfgsB, _ := parseAll(t, texts)
			got, errA := Translate(h, orig, rep, cfgsA)
			want, errB := fullScan(h, orig, rep, cfgsB)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s round %d: diff walk error %v, full scan error %v", name, round, errA, errB)
			}
			if errA != nil {
				continue // an unrealizable edit (e.g. removing a deny that is not there)
			}
			compared++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: plans differ\ndiff walk:\n%s\nfull scan:\n%s", name, round, got, want)
			}
			for dev := range cfgsA {
				if cfgsA[dev].Print() != cfgsB[dev].Print() {
					t.Fatalf("%s round %d: patched %s differs", name, round, dev)
				}
			}
		}
	}
	for _, kind := range []string{"adjacency", "redistribution", "route-filter", "static", "cost", "acl:inter", "acl:src", "acl:dst", "dst", "waypoint"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s edit was generated", kind)
		}
	}
	if compared < 200 {
		t.Errorf("only %d rounds reached the comparison", compared)
	}
}
