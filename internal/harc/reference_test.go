package harc_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/bitset"
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
	for i, n := range aclHeavyNetworks(t) {
		nets[fmt.Sprintf("acl-heavy-%d", i)] = n
	}
	return nets
}

// aclHeavyNetworks returns small corpus networks after a burst of random
// edits, two per device: mostly ACL denies, on transit and host-facing
// interfaces alike and in both directions, the rest route filters and
// static routes. These are the constructs that make a class's row depart
// from its destination's — what the hierarchical fill must get right and
// the generated corpus alone exercises thinly.
func aclHeavyNetworks(t *testing.T) []*topology.Network {
	t.Helper()
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 6, SubnetScale: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var nets []*topology.Network
	for _, inst := range corpus {
		subnets := inst.Network.Subnets
		for _, d := range inst.Network.Devices() {
			c, intfs := inst.Configs[d.Name], d.Interfaces()
			for edit := 0; edit < 2; edit++ {
				src, dst := subnets[rng.Intn(len(subnets))], subnets[rng.Intn(len(subnets))]
				intf := intfs[rng.Intn(len(intfs))]
				var err error
				switch op := rng.Intn(8); {
				case op == 6 && intf.Peer() != nil && intf.Peer().Prefix.IsValid():
					_, err = c.AddStaticRoute(dst.Prefix, intf.Peer().Prefix.Addr(), 1+rng.Intn(5))
				case op == 7 && len(d.Processes) > 0:
					p := d.Processes[rng.Intn(len(d.Processes))]
					_, err = c.AddRouteFilter(p.Proto, p.ID, dst.Prefix)
				default:
					_, err = c.AddACLDeny(intf.Name, []string{"in", "out"}[rng.Intn(2)], src.Prefix, dst.Prefix)
				}
				if err != nil {
					t.Fatalf("editing %s: %v", d.Name, err)
				}
			}
		}
		if err := inst.Rebuild(); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, inst.Network)
	}
	return nets
}

func TestStateOfMatchesMapReference(t *testing.T) {
	for name, n := range referenceInstances(t) {
		t.Run(name, func(t *testing.T) {
			h := harc.BuildLite(n, n.TrafficClasses())
			st := harc.StateOf(h)
			assertMatchesReference(t, h, st, refStateOf(h))
			if strings.HasPrefix(name, "acl-heavy") {
				blocked := 0
				for r, tc := range h.TCs {
					bitset.EachDiff(st.TC[r], st.DstBits(tc.Dst), func(id int) {
						if h.Slots[id].Kind != arc.SlotSource {
							blocked++
						}
					})
				}
				if blocked < len(h.TCs)/4 {
					t.Fatalf("only %d ACL-blocked (class, slot) pairs over %d classes: the edits do not exercise the class level", blocked, len(h.TCs))
				}
			}
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
