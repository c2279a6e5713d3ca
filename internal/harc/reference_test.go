package harc_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/topology"
)

// refState is the string-keyed state the dense State replaced, kept here
// as the slow reference: presence maps keyed by Slot.Key() (absent key =
// slot not applicable to the row), constructs keyed "dst|proc" and
// "dst|slotKey", waypoints by Link.Name().
type refState struct {
	All         map[string]bool
	Dst         map[string]map[string]bool
	TC          map[string]map[string]bool
	Cost        map[string]int64
	Waypoint    map[string]bool
	RouteFilter map[string]bool
	Static      map[string]bool
}

// refStateOf is the map-based StateOf, rule for rule.
func refStateOf(h *harc.HARC) *refState {
	st := &refState{
		All: map[string]bool{}, Dst: map[string]map[string]bool{}, TC: map[string]map[string]bool{},
		Cost: map[string]int64{}, Waypoint: map[string]bool{},
		RouteFilter: map[string]bool{}, Static: map[string]bool{},
	}
	for _, s := range h.Slots {
		if s.Kind != arc.SlotSource && s.Kind != arc.SlotDest {
			st.All[s.Key()] = s.PresentAll()
		}
		if s.Kind == arc.SlotInterDevice {
			st.Cost[s.FromIntf.Device.Name+"/"+s.FromIntf.Name] = int64(s.FromIntf.Cost)
		}
	}
	for _, l := range h.Network.Links {
		st.Waypoint[l.Name()] = l.Waypoint
	}
	for _, dst := range h.Dsts {
		m := map[string]bool{}
		for _, s := range h.Slots {
			switch s.Kind {
			case arc.SlotIntraSelf:
				st.RouteFilter[dst.Name+"|"+s.FromProc.Name()] = s.FromProc.BlocksDestination(dst.Prefix)
			case arc.SlotInterDevice:
				st.Static[dst.Name+"|"+s.Key()] = s.StaticBacked(dst) != nil
			}
			if s.Kind == arc.SlotSource || (s.Kind == arc.SlotDest && s.Subnet != dst) {
				continue
			}
			m[s.Key()] = s.PresentDst(dst)
		}
		st.Dst[dst.Name] = m
	}
	for _, tc := range h.TCs {
		m := map[string]bool{}
		for _, s := range h.Slots {
			if (s.Kind == arc.SlotSource && s.Subnet != tc.Src) || (s.Kind == arc.SlotDest && s.Subnet != tc.Dst) {
				continue
			}
			m[s.Key()] = s.PresentTC(tc)
		}
		st.TC[tc.Key()] = m
	}
	return st
}

// assertMatchesReference checks the dense state bit for bit against the
// reference: every (row, slot) pair, with "not in the reference map"
// required to read as an absent bit.
func assertMatchesReference(t *testing.T, h *harc.HARC, st *harc.State, ref *refState) {
	t.Helper()
	if len(st.Cost) != len(ref.Cost) {
		t.Fatalf("cost keys: %d, reference %d", len(st.Cost), len(ref.Cost))
	}
	for k, v := range ref.Cost {
		if got, ok := st.Cost[k]; !ok || got != v {
			t.Fatalf("cost[%s] = %d (present %v), reference %d", k, got, ok, v)
		}
	}
	// Parallel links share a name (and so a reference entry, last writer
	// wins); the generated networks have none.
	if len(ref.Waypoint) != len(h.Links) {
		t.Fatalf("reference conflates parallel links: %d names for %d links", len(ref.Waypoint), len(h.Links))
	}
	for id, l := range h.Links {
		if st.Waypoint.Has(id) != ref.Waypoint[l.Name()] {
			t.Fatalf("waypoint[%s] = %v, reference %v", l.Name(), st.Waypoint.Has(id), ref.Waypoint[l.Name()])
		}
	}
	for id, s := range h.Slots {
		if st.All.Has(id) != ref.All[s.Key()] {
			t.Fatalf("All[%s] = %v, reference %v", s.Key(), st.All.Has(id), ref.All[s.Key()])
		}
	}
	for r, dst := range h.Dsts {
		m := ref.Dst[dst.Name]
		for id, s := range h.Slots {
			if st.Dst[r].Has(id) != m[s.Key()] {
				t.Fatalf("Dst[%s][%s] = %v, reference %v", dst.Name, s.Key(), st.Dst[r].Has(id), m[s.Key()])
			}
			if st.Static[r].Has(id) != ref.Static[dst.Name+"|"+s.Key()] {
				t.Fatalf("Static[%s][%s] = %v, reference %v", dst.Name, s.Key(), st.Static[r].Has(id), !st.Static[r].Has(id))
			}
		}
		for pid, p := range h.Procs {
			if st.RouteFilter[r].Has(pid) != ref.RouteFilter[dst.Name+"|"+p.Name()] {
				t.Fatalf("RouteFilter[%s][%s] = %v, reference %v", dst.Name, p.Name(), st.RouteFilter[r].Has(pid), !st.RouteFilter[r].Has(pid))
			}
		}
	}
	for r, tc := range h.TCs {
		m := ref.TC[tc.Key()]
		for id, s := range h.Slots {
			if st.TC[r].Has(id) != m[s.Key()] {
				t.Fatalf("TC[%s][%s] = %v, reference %v", tc, s.Key(), st.TC[r].Has(id), m[s.Key()])
			}
		}
	}
}

// referenceInstances is the population the fast path is pinned on: the
// paper's running example, the 24-network corpus the benchmark uses, and
// broken fat-trees at k=4 and k=8.
func referenceInstances(t *testing.T) map[string]*topology.Network {
	t.Helper()
	nets := map[string]*topology.Network{"figure2a": topology.Figure2a()}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		nets[fmt.Sprintf("corpus-%02d", i)] = inst.Network
	}
	ft4, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft4, 5, 8); err != nil {
		t.Fatal(err)
	}
	nets["fattree-k4-broken"] = ft4.Network
	if !testing.Short() {
		ft8, err := generate.Preset("fattree-k8", 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft8, 11, 5); err != nil {
			t.Fatal(err)
		}
		nets["fattree-k8-broken"] = ft8.Network
	}
	return nets
}

func TestStateOfMatchesMapReference(t *testing.T) {
	for name, n := range referenceInstances(t) {
		t.Run(name, func(t *testing.T) {
			h := harc.BuildLite(n, n.TrafficClasses())
			st := harc.StateOf(h)
			assertMatchesReference(t, h, st, refStateOf(h))
			// Slot ids are positions in key order, the order every
			// consumer's emission order rests on.
			if !sort.SliceIsSorted(h.Slots, func(i, j int) bool { return h.Slots[i].Key() < h.Slots[j].Key() }) {
				t.Fatal("slots are not in key order")
			}
			for id, s := range h.Slots {
				if s.ID != id || h.SlotID(s.Key()) != id {
					t.Fatalf("slot %s: ID %d, SlotID %d, position %d", s.Key(), s.ID, h.SlotID(s.Key()), id)
				}
			}
		})
	}
}

// mutateDevice applies one random behavioural edit to the named device's
// configuration, covering every construct kind the state models.
func mutateDevice(t *testing.T, rng *rand.Rand, inst *generate.Instance, dev string) {
	t.Helper()
	c := inst.Configs[dev]
	d := inst.Network.Device(dev)
	subnets := inst.Network.Subnets
	src, dst := subnets[rng.Intn(len(subnets))], subnets[rng.Intn(len(subnets))]
	intfs := d.Interfaces()
	intf := intfs[rng.Intn(len(intfs))]
	var err error
	switch op := rng.Intn(6); {
	case op == 0:
		_, err = c.AddACLDeny(intf.Name, []string{"in", "out"}[rng.Intn(2)], src.Prefix, dst.Prefix)
	case op == 1 && intf.Peer() != nil && intf.Peer().Prefix.IsValid():
		c.AddStaticRoute(dst.Prefix, intf.Peer().Prefix.Addr(), 1+rng.Intn(5))
	case op == 2 && len(d.Processes) > 0:
		p := d.Processes[rng.Intn(len(d.Processes))]
		_, err = c.AddRouteFilter(p.Proto, p.ID, dst.Prefix)
	case op == 3:
		_, err = c.SetInterfaceCost(intf.Name, 1+rng.Intn(9))
	case op == 4 && len(d.Processes) > 0 && d.Processes[0].Proto != topology.BGP:
		p := d.Processes[0]
		_, err = c.DisableAdjacency(p.Proto, p.ID, intf.Name)
	default:
		_, err = c.SetWaypoint(intf.Name, intf.Link == nil || !intf.Link.Waypoint)
	}
	if err != nil {
		t.Fatalf("mutating %s: %v", dev, err)
	}
}

// reparse deep-copies an instance through its configuration text, so a
// mutation of the copy cannot reach the original's network.
func reparse(t *testing.T, inst *generate.Instance) *generate.Instance {
	t.Helper()
	cp := &generate.Instance{Name: inst.Name, Configs: map[string]*config.Config{}, Policies: inst.Policies}
	for name, c := range inst.Configs {
		cc, err := config.Parse(name, c.Print())
		if err != nil {
			t.Fatal(err)
		}
		cp.Configs[name] = cc
	}
	if err := cp.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestStateOfDeltaMatchesStateOf(t *testing.T) {
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 6, SubnetScale: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, inst := range corpus {
		baseH := harc.BuildLite(inst.Network, inst.Network.TrafficClasses())
		base := harc.StateOf(baseH)
		devs := inst.Network.Devices()
		for round := 0; round < 8; round++ {
			dev := devs[rng.Intn(len(devs))].Name
			next := reparse(t, inst)
			mutateDevice(t, rng, next, dev)
			if err := next.Rebuild(); err != nil {
				t.Fatal(err)
			}
			h := harc.BuildLite(next.Network, next.Network.TrafficClasses())
			delta := harc.StateOfDelta(h, base, map[string]bool{dev: true})
			if delta == nil {
				t.Fatalf("%s round %d: behavioural edit of %s was refused as structural", inst.Name, round, dev)
			}
			full := harc.StateOf(h)
			if !delta.Equal(full) {
				t.Fatalf("%s round %d: StateOfDelta after editing %s differs from StateOf", inst.Name, round, dev)
			}
			assertMatchesReference(t, h, delta, refStateOf(h))
		}

		// A structural edit — a new host subnet on one device — changes the
		// slot table, so the delta path must refuse.
		next := reparse(t, inst)
		dev := devs[0].Name
		text := next.Configs[dev].Print() + fmt.Sprintf(
			"interface Ethernet9/9\n description %sNEW\n ip address 10.250.%d.1 255.255.255.0\n!\n",
			config.SubnetDescriptionPrefix, rng.Intn(200))
		if next.Configs[dev], err = config.Parse(dev, text); err != nil {
			t.Fatal(err)
		}
		if err := next.Rebuild(); err != nil {
			t.Fatal(err)
		}
		h := harc.BuildLite(next.Network, next.Network.TrafficClasses())
		if len(h.Slots) == len(baseH.Slots) {
			t.Fatalf("%s: the structural edit added no slot", inst.Name)
		}
		if harc.StateOfDelta(h, base, map[string]bool{dev: true}) != nil {
			t.Fatalf("%s: StateOfDelta accepted a structural edit", inst.Name)
		}
	}
}

// TestCloneNeverAliasesAWrittenRow: every write through a clone must
// leave the original — and every other clone — reading what it read
// before, whichever row it lands in; concurrent clones of one shared
// state (what parallel sub-problems do) must not race.
func TestCloneNeverAliasesAWrittenRow(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	h := harc.Build(n)
	orig := harc.StateOf(h)
	want := refStateOf(h)

	done := make(chan *harc.State)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c := orig.Clone()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				id := rng.Intn(len(h.Slots))
				switch rng.Intn(6) {
				case 0:
					c.SetAll(id, !c.All.Has(id))
				case 1:
					r := rng.Intn(len(c.Dst))
					c.SetDst(r, id, !c.Dst[r].Has(id))
				case 2:
					r := rng.Intn(len(c.TC))
					c.SetTC(r, id, !c.TC[r].Has(id))
				case 3:
					r, p := rng.Intn(len(c.RouteFilter)), rng.Intn(len(h.Procs))
					c.SetRouteFilter(r, p, !c.RouteFilter[r].Has(p))
				case 4:
					r := rng.Intn(len(c.Static))
					c.SetStatic(r, id, !c.Static[r].Has(id))
				case 5:
					l := rng.Intn(len(h.Links))
					c.SetWaypoint(l, !c.Waypoint.Has(l))
				}
			}
			done <- c
		}(w)
	}
	var clones []*harc.State
	for w := 0; w < 4; w++ {
		clones = append(clones, <-done)
	}
	assertMatchesReference(t, h, orig, want)
	for i, c := range clones {
		if c.Equal(orig) {
			t.Errorf("clone %d: 200 flips left it equal to the original", i)
		}
	}

	// The original is writable again too, without reaching its clones.
	snapshot := clones[0].Clone()
	for r := range orig.TC {
		orig.SetTC(r, 0, !orig.TC[r].Has(0))
	}
	orig.SetAll(0, !orig.All.Has(0))
	if !clones[0].Equal(snapshot) {
		t.Error("a write to the original after Clone showed through the clone")
	}
}
