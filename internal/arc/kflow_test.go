package arc

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// OddNetwork builds the shapes randomNetwork never emits and the link
// bottleneck exists for: up to three parallel links between one device
// pair (which share a name), two same-protocol processes on a device — so
// a link direction carries up to four slots — links no process runs over
// (no slot of theirs is ever present), passive ends, and so few devices
// that a class's two subnets often sit on one.
func OddNetwork(r *rand.Rand) *topology.Network {
	n := topology.NewNetwork()
	nDev := 2 + r.Intn(3)
	devs := make([]*topology.Device, nDev)
	for i := range devs {
		devs[i] = n.AddDevice(fmt.Sprintf("d%d", i))
		p1 := devs[i].AddProcess(topology.OSPF, 1)
		p1.Passive = map[string]bool{}
		p1.RedistributeConnected = true
		if r.Intn(2) == 0 {
			p2 := devs[i].AddProcess(topology.OSPF, 2)
			p2.Passive = map[string]bool{}
			p2.RedistributeConnected = true
			if r.Intn(3) > 0 {
				p1.RedistributesFrom = append(p1.RedistributesFrom, p2)
			}
			if r.Intn(3) > 0 {
				p2.RedistributesFrom = append(p2.RedistributesFrom, p1)
			}
		}
	}
	linkIdx := 0
	enroll := func(d *topology.Device, intf *topology.Interface) {
		for _, p := range d.Processes {
			if r.Intn(4) > 0 {
				p.Interfaces = append(p.Interfaces, intf)
				p.Passive[intf.Name] = r.Intn(8) == 0
			}
		}
	}
	for i := 0; i < nDev; i++ {
		for j := i + 1; j < nDev; j++ {
			for m := r.Intn(4); m > 0; m-- {
				ia := devs[i].AddInterface(fmt.Sprintf("to%d-%d", j, m))
				ib := devs[j].AddInterface(fmt.Sprintf("to%d-%d", i, m))
				ia.Prefix = netip.PrefixFrom(addrOf(10, linkIdx/250, linkIdx%250, 1), 24)
				ib.Prefix = netip.PrefixFrom(addrOf(10, linkIdx/250, linkIdx%250, 2), 24)
				n.AddLink(ia, ib)
				enroll(devs[i], ia)
				enroll(devs[j], ib)
				linkIdx++
			}
		}
	}
	for s := 0; s < 2+r.Intn(3); s++ {
		d := r.Intn(nDev)
		intf := devs[d].AddInterface(fmt.Sprintf("host%d", s))
		intf.Prefix = netip.PrefixFrom(addrOf(20, s, 0, 1), 24)
		intf.Subnet = n.AddSubnet(fmt.Sprintf("net%d", s), netip.PrefixFrom(addrOf(20, s, 0, 0), 24))
		if r.Intn(4) == 0 {
			acl := devs[d].AddACL(fmt.Sprintf("A%d", s))
			acl.Entries = []topology.ACLEntry{{Permit: false, Dst: intf.Subnet.Prefix}, {Permit: true}}
			intf.OutACL = acl.Name
		}
	}
	for _, d := range devs {
		for _, p := range d.Processes {
			if r.Intn(6) == 0 {
				p.RouteFilters = append(p.RouteFilters, n.Subnets[r.Intn(len(n.Subnets))].Prefix)
			}
		}
	}
	return n
}

// RandomMaskETG returns a view of t whose live slots are drawn at random,
// whatever the slot rules say: about three in four of them.
func RandomMaskETG(t *Table, r *rand.Rand) *ETG {
	live := bitset.New(len(t.Slots))
	for i := range t.Slots {
		live.Put(i, r.Intn(4) > 0)
	}
	return NewETG(t, live, t.Weights(func(s *Slot) int64 { return s.Weight(nil) }))
}

// RandomFailures returns a random set of about a quarter of n's link ids.
func RandomFailures(n *topology.Network, r *rand.Rand) bitset.Set {
	failed := bitset.New(len(n.Links))
	for i := range n.Links {
		failed.Put(i, r.Intn(4) == 0)
	}
	return failed
}

// CheckKFlow holds LinkDisjointFlow and MinLinkCut on e, for k = 1..4, to
// the per-ETG reference construction — same value, same cut — and, when
// exhaustive is set (small networks only: the oracle enumerates link
// subsets), to the ground truth: the verdict is the subset enumeration's,
// and a reported cut has exactly as many links as the flow has paths and
// really disconnects the class.
func CheckKFlow(t testing.TB, what string, e *ETG, n *topology.Network, exhaustive bool) {
	t.Helper()
	for k := 1; k <= 4; k++ {
		flow, ref := LinkDisjointFlow(e, k), refLinkDisjointFlow(e, k)
		if flow != ref {
			t.Fatalf("%s: LinkDisjointFlow(%d) = %d, reference %d", what, k, flow, ref)
		}
		cut, ok := MinLinkCut(e, k)
		refCut, refOK := refMinLinkCut(e, k)
		if ok != refOK || !linkSet(n, cut...).Equal(linkSet(n, refCut...)) || len(cut) != len(refCut) {
			t.Fatalf("%s: MinLinkCut(%d) = %v,%v, reference %v,%v", what, k, linkNames(cut), ok, linkNames(refCut), refOK)
		}
		for i := 1; i < len(cut); i++ {
			if cut[i-1].Name() > cut[i].Name() {
				t.Fatalf("%s: MinLinkCut(%d) = %v is not sorted by name", what, k, linkNames(cut))
			}
		}
		if !exhaustive {
			continue
		}
		if ok != (flow < k) || (ok && len(cut) != flow) {
			t.Fatalf("%s: k=%d: flow %d but cut %v,%v", what, k, flow, linkNames(cut), ok)
		}
		if want := VerifyKReachableExhaustive(e, n, k); VerifyKReachable(e, n, k) != want {
			t.Fatalf("%s: VerifyKReachable(%d) = %v, subset enumeration says %v", what, k, !want, want)
		}
		if ok {
			if w := e.WithoutLinks(linkSet(n, cut...)); w.G.PathExists(w.Src, w.Dst) {
				t.Fatalf("%s: failing MinLinkCut(%d) = %v leaves a path", what, k, linkNames(cut))
			}
		}
	}
}

func linkNames(links []*topology.Link) []string {
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name()
	}
	return names
}

// CheckKFlowNetwork runs CheckKFlow over a small network: every class's
// tcETG as the slot rules build it and with random links failed, oracle
// included, plus views under masks no rule would produce. Those are held to
// the reference alone: the auxiliary network lets a unit enter a link's
// bottleneck by one slot and leave it by another, which adds nothing over
// the ETGs the slot rules (and WithoutLinks) produce — every test here
// says so — but can join what an arbitrary mask leaves unconnected, in the
// reference exactly as in the skeleton.
func CheckKFlowNetwork(t testing.TB, what string, n *topology.Network, r *rand.Rand) {
	t.Helper()
	tab := NewTable(n)
	for _, tc := range n.TrafficClasses() {
		e := BuildTCETG(tab, tc)
		CheckKFlow(t, what+" "+tc.String(), e, n, true)
		CheckKFlow(t, what+" "+tc.String()+" with failures", e.WithoutLinks(RandomFailures(n, r)), n, true)
	}
	for i := 0; i < 3; i++ {
		e := RandomMaskETG(tab, r)
		CheckKFlow(t, what+" random mask", e, n, false)
		CheckKFlow(t, what+" random mask with failures", e.WithoutLinks(RandomFailures(n, r)), n, false)
	}
}

// sourceSlots returns the ids of the source attachment slots of subnet
// src, ascending.
func sourceSlots(t *Table, src *topology.Subnet) []int32 {
	var ids []int32
	for id, s := range t.Slots {
		if s.Kind == SlotSource && s.Subnet == src {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// CheckDstTree holds the post-dominator tree of the destination mask dst
// to the flow: for every class row (with its source slots) that is clean —
// equal to dst but at its own source slots — the tree's answer must be
// min(2, LinkDisjointFlow) at k = 2 and its min with 1 the flow at k = 1.
// It returns how many classes were clean and how many got each answer.
func CheckDstTree(t testing.TB, what string, tab *Table, dst bitset.Set, rows []bitset.Set, sources [][]int32) (clean int, answers [3]int) {
	t.Helper()
	tree := NewDstTree(tab, dst)
	defer tree.Release()
	for i, row := range rows {
		isClean := true
		bitset.EachDiff(row, dst, func(id int) {
			isClean = isClean && slices.Contains(sources[i], int32(id))
		})
		if !isClean {
			continue
		}
		clean++
		e := NewETG(tab, row, nil)
		got, want := tree.Flow(row, sources[i]), LinkDisjointFlow(e, 2)
		if got != want || min(got, 1) != LinkDisjointFlow(e, 1) {
			t.Fatalf("%s class %d: tree says %d, flow %d at k=2 and %d at k=1", what, i, got, want, LinkDisjointFlow(e, 1))
		}
		answers[got]++
	}
	return clean, answers
}

// CheckDstTreeMasks runs CheckDstTree on random destination masks over
// every subnet of n, each class a copy plus a random subset of its own
// source slots.
func CheckDstTreeMasks(t testing.TB, what string, n *topology.Network, r *rand.Rand) {
	t.Helper()
	tab := NewTable(n)
	for _, dst := range n.Subnets {
		mask := RandomMaskETG(tab, r).G.Live()
		for id, s := range tab.Slots {
			if s.Kind == SlotSource {
				mask.Put(id, false)
			}
		}
		var rows []bitset.Set
		var sources [][]int32
		for _, src := range n.Subnets {
			if src == dst {
				continue
			}
			row, ids := mask.Clone(), sourceSlots(tab, src)
			for _, id := range ids {
				row.Put(int(id), r.Intn(4) > 0)
			}
			rows, sources = append(rows, row), append(sources, ids)
		}
		CheckDstTree(t, what+" to "+dst.Name, tab, mask, rows, sources)
	}
}

// kflowSeedNetwork draws the network of one seed: the calibrated random
// networks on even seeds, the odd shapes on odd ones.
func kflowSeedNetwork(seed int64) (*topology.Network, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	if seed&1 == 0 {
		return randomNetwork(r), r
	}
	return OddNetwork(r), r
}

// FuzzKFlow: a seed picks a small network (calibrated or odd), failures
// and masks; on every ETG derived from them the flow skeleton, the per-ETG
// reference and the subset enumeration agree for k = 1..4, and every cut
// reported is a real, minimum one. Under random destination masks the
// post-dominator tree of each destination agrees with the flow (not with
// the subset enumeration: the tree shares the flow's link bottleneck).
func FuzzKFlow(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		n, r := kflowSeedNetwork(seed)
		CheckKFlowNetwork(t, fmt.Sprintf("seed %d", seed), n, r)
		CheckDstTreeMasks(t, fmt.Sprintf("seed %d", seed), n, r)
	})
}

// TestKFlowStampWrap drives one scratch across the wrap of its search
// stamp. The scratch first serves a large table, so that marks with small
// stamps sit beyond the reach of the small table it serves next — while
// the counter, set just below its limit, wraps — and then the large table
// again: the restarted stamps run straight through the values those old
// marks hold, and only clearing every mark the scratch ever held (not the
// current table's share of them) keeps a never-visited vertex from
// reading as visited.
func TestKFlowStampWrap(t *testing.T) {
	var big, small *topology.Network
	for seed := int64(0); big == nil || small == nil; seed++ {
		n := randomNetwork(rand.New(rand.NewSource(seed)))
		switch {
		case len(n.Subnets) < 2:
		case n.NumDevices() == 6 && len(n.Links) >= 8:
			big = n
		case n.NumDevices() == 3 && len(n.Links) >= 2:
			small = n
		}
	}
	f := new(flowScratch)
	check := func(n *topology.Network) {
		t.Helper()
		tab := NewTable(n)
		for _, tc := range n.TrafficClasses() {
			e := BuildTCETG(tab, tc)
			for k := 1; k <= 3; k++ {
				want := VerifyKReachableExhaustive(e, n, k)
				if got := f.linkDisjointFlow(e, k) >= k; got != want {
					t.Fatalf("%s k=%d at stamp %d: flow says %v, subset enumeration %v", tc, k, f.stamp, got, want)
				}
				cut, ok := f.minLinkCut(e, k)
				if ok == want {
					t.Fatalf("%s k=%d at stamp %d: MinLinkCut ok=%v on a policy that %v", tc, k, f.stamp, ok, want)
				}
				if ok {
					if w := e.WithoutLinks(linkSet(n, cut...)); w.G.PathExists(w.Src, w.Dst) || len(cut) >= k {
						t.Fatalf("%s k=%d at stamp %d: bad cut %v", tc, k, f.stamp, linkNames(cut))
					}
				}
			}
		}
	}
	check(big)
	if f.stamp < 8 {
		t.Fatalf("only %d stamps used on the large network", f.stamp)
	}
	f.stamp = math.MaxInt32 - 5
	check(small)
	if f.stamp <= 0 || f.stamp > math.MaxInt32/2 {
		t.Fatalf("stamp = %d after the small network: it did not wrap to a fresh start", f.stamp)
	}
	check(big)
}

// TestFlowShapeSharedUnderRace: the flow skeleton is built by whichever
// goroutine checks an ETG of the table first and read by all of them. Many
// goroutines check the ETGs of one fresh table at once — first use
// included — and must see what a serial pass over an identical table saw.
// Run under -race (CI does).
func TestFlowShapeSharedUnderRace(t *testing.T) {
	n := randomNetwork(rand.New(rand.NewSource(5)))
	for seed := int64(6); len(n.Subnets) < 3 || len(n.Links) < 5; seed++ {
		n = randomNetwork(rand.New(rand.NewSource(seed)))
	}
	type answer struct {
		flow int
		cut  []string
		ok   bool
	}
	run := func(e *ETG) answer {
		cut, ok := MinLinkCut(e, 3)
		return answer{LinkDisjointFlow(e, 3), linkNames(cut), ok}
	}
	tcs := n.TrafficClasses()
	serialTab := NewTable(n)
	want := make([]answer, len(tcs))
	for i, tc := range tcs {
		want[i] = run(BuildTCETG(serialTab, tc))
	}

	for round := 0; round < 20; round++ {
		tab := NewTable(n)
		etgs := make([]*ETG, len(tcs))
		for i, tc := range tcs {
			etgs[i] = BuildTCETG(tab, tc)
		}
		workers := max(4, runtime.GOMAXPROCS(0))
		got := make([][]answer, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				got[w] = make([]answer, len(etgs))
				start.Wait()
				for i := range etgs {
					j := (i + w) % len(etgs) // different ETGs at any one moment
					got[w][j] = run(etgs[j])
				}
			}(w)
		}
		start.Done()
		done.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Fatalf("round %d worker %d: %v, serial %v", round, w, got[w], want)
			}
		}
	}
}

// TestKFlowAllocs pins the steady state: on a warmed table with a warmed
// scratch a flow allocates nothing, and a cut only what it returns. (The
// exported functions add a sync.Pool round trip, which allocates only when
// the pool has dropped its scratch — at a GC, or at random under -race.)
func TestKFlowAllocs(t *testing.T) {
	n := topology.Figure2a()
	tab := NewTable(n)
	e := BuildTCETG(tab, tcOf(n, "S", "T")) // one link-disjoint path: PC3 k=2 is violated
	f := new(flowScratch)
	f.linkDisjointFlow(e, 2)
	if allocs := testing.AllocsPerRun(100, func() { f.linkDisjointFlow(e, 2) }); allocs != 0 {
		t.Errorf("a steady-state LinkDisjointFlow allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.minLinkCut(e, 1) }); allocs != 0 {
		t.Errorf("a MinLinkCut that finds the policy satisfied allocates %.0f times, want 0", allocs)
	}
	cut, ok := f.minLinkCut(e, 2)
	if !ok || len(cut) != 1 {
		t.Fatalf("MinLinkCut(S→T, 2) = %v,%v, want one link", linkNames(cut), ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.minLinkCut(e, 2) }); allocs > 1 {
		t.Errorf("a MinLinkCut returning one link allocates %.0f times, want 1 (the result)", allocs)
	}
}
