package arc

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/topology"
)

func addrOf(a, b, c, d int) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), byte(d)})
}

// randomNetwork builds a random small network directly in the topology
// model: 3-6 devices, random links with random costs and waypoints,
// random subnets, random ACLs and route filters.
func randomNetwork(r *rand.Rand) *topology.Network {
	n := topology.NewNetwork()
	nDev := 3 + r.Intn(4)
	devs := make([]*topology.Device, nDev)
	procs := make([]*topology.Process, nDev)
	for i := range devs {
		devs[i] = n.AddDevice(fmt.Sprintf("d%d", i))
		procs[i] = devs[i].AddProcess(topology.OSPF, 1)
		procs[i].Passive = map[string]bool{}
		procs[i].RedistributeConnected = true
	}
	linkIdx := 0
	for i := 0; i < nDev; i++ {
		for j := i + 1; j < nDev; j++ {
			if r.Intn(2) == 0 {
				continue
			}
			ia := devs[i].AddInterface(fmt.Sprintf("to%d", j))
			ib := devs[j].AddInterface(fmt.Sprintf("to%d", i))
			ia.Prefix = netip.PrefixFrom(addrOf(10, linkIdx/250, linkIdx%250, 1), 24)
			ib.Prefix = netip.PrefixFrom(addrOf(10, linkIdx/250, linkIdx%250, 2), 24)
			ia.Cost = 1 + r.Intn(5)
			ib.Cost = 1 + r.Intn(5)
			l := n.AddLink(ia, ib)
			l.Waypoint = r.Intn(4) == 0
			procs[i].Interfaces = append(procs[i].Interfaces, ia)
			procs[j].Interfaces = append(procs[j].Interfaces, ib)
			linkIdx++
		}
	}
	nSub := 2 + r.Intn(3)
	for s := 0; s < nSub; s++ {
		d := r.Intn(nDev)
		intf := devs[d].AddInterface(fmt.Sprintf("host%d", s))
		intf.Prefix = netip.PrefixFrom(addrOf(20, s, 0, 1), 24)
		sub := n.AddSubnet(fmt.Sprintf("net%d", s), netip.PrefixFrom(addrOf(20, s, 0, 0), 24))
		intf.Subnet = sub
		if r.Intn(3) == 0 {
			acl := devs[d].AddACL(fmt.Sprintf("A%d", s))
			acl.Entries = []topology.ACLEntry{
				{Permit: false, Dst: sub.Prefix},
				{Permit: true},
			}
			intf.OutACL = acl.Name
		}
	}
	for _, p := range procs {
		if r.Intn(4) == 0 && len(n.Subnets) > 0 {
			p.RouteFilters = append(p.RouteFilters, n.Subnets[r.Intn(len(n.Subnets))].Prefix)
		}
	}
	return n
}

// Property: failing more links never adds reachability (monotonicity of
// the failure model).
func TestPropertyFailureMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r)
		if len(n.Subnets) < 2 || len(n.Links) == 0 {
			return true
		}
		slots := NewTable(n)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		etg := BuildTCETG(slots, tc)
		failed := bitset.New(len(n.Links))
		reachable := etg.G.PathExists(etg.Src, etg.Dst)
		for id := range n.Links {
			if r.Intn(2) == 0 {
				failed.Put(id, true)
				nowReachable := etg.WithoutLinks(failed).G.PathExists(etg.Src, etg.Dst)
				if nowReachable && !reachable {
					return false // failure added reachability: impossible
				}
				reachable = nowReachable
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: verifier consistency — K-reachability is downward closed in
// K, and implied by a max-flow of at least K.
func TestPropertyVerifierConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r)
		if len(n.Subnets) < 2 {
			return true
		}
		slots := NewTable(n)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		etg := BuildTCETG(slots, tc)
		prev := true
		for k := 1; k <= 3; k++ {
			ok := VerifyKReachable(etg, n, k)
			if ok && !prev {
				return false // K-reachable but not (K-1)-reachable
			}
			prev = ok
		}
		// Blocked and reachable are mutually exclusive.
		if VerifyAlwaysBlocked(etg) && VerifyKReachable(etg, n, 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: max-flow lower-bounds exact K-reachability — if the unit
// max-flow is at least k AND the flow decomposition is link-disjoint,
// the network tolerates k-1 failures.
func TestPropertyMaxFlowSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r)
		if len(n.Subnets) < 2 {
			return true
		}
		slots := NewTable(n)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		etg := BuildTCETG(slots, tc)
		flow := MaxDisjointFlow(etg)
		// Exact verification for k = flow must hold whenever the flow
		// paths are truly link-disjoint; with at most one edge pair per
		// link per direction in these small networks, check directly.
		if flow >= 2 && !VerifyKReachable(etg, n, 2) {
			// Only a contradiction if the two flow paths share no
			// physical link; MaxDisjointFlow counts directed edges, so a
			// link used in both directions could overcount. Accept that
			// case.
			return sharesLinkBothDirections(etg)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sharesLinkBothDirections reports whether the ETG has both directions of
// some physical link (the overcount caveat of MaxDisjointFlow).
func sharesLinkBothDirections(etg *ETG) bool {
	seen := map[string]int{}
	etg.EachSlot(func(s *Slot) {
		if s.Kind == SlotInterDevice {
			seen[s.Link.Name()]++
		}
	})
	for _, c := range seen {
		if c > 1 {
			return true
		}
	}
	return false
}

// Property: hierarchy invariants hold by construction on random
// networks.
func TestPropertyHierarchyByConstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r)
		slots := NewTable(n)
		for _, tc := range n.TrafficClasses() {
			for _, s := range slots.Slots {
				if s.PresentTC(tc) && !s.PresentDst(tc.Dst) {
					return false
				}
			}
		}
		for _, dst := range n.Subnets {
			for _, s := range slots.Slots {
				if !s.PresentDst(dst) {
					continue
				}
				switch s.Kind {
				case SlotIntraSelf, SlotIntraRedist:
					if !s.PresentAll() {
						return false
					}
				case SlotInterDevice:
					if !s.PresentAll() && s.StaticBacked(dst) == nil {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the max-flow PC3 verifier agrees with the ground-truth subset
// enumeration on every random network and every K — the equivalence the
// Menger reduction in kflow.go claims — and so it does on the shapes
// randomNetwork never emits (OddNetwork: parallel links, several slots per
// link direction, links without a slot, both subnets on one device), with
// and without a random set of links already failed.
func TestKFlowMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, n := range []*topology.Network{randomNetwork(r), OddNetwork(r)} {
			slots := NewTable(n)
			for _, tc := range n.TrafficClasses() {
				etg := BuildTCETG(slots, tc)
				for _, e := range []*ETG{etg, etg.WithoutLinks(RandomFailures(n, r))} {
					for k := 1; k <= 4; k++ {
						if VerifyKReachable(e, n, k) != VerifyKReachableExhaustive(e, n, k) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: when MinLinkCut reports a witness, failing exactly those links
// really disconnects the class, and the witness is smaller than K; when it
// reports none, the verifier agrees the policy holds.
func TestMinLinkCutWitness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r)
		if len(n.Subnets) < 2 {
			return true
		}
		slots := NewTable(n)
		tc := topology.TrafficClass{Src: n.Subnets[0], Dst: n.Subnets[1]}
		etg := BuildTCETG(slots, tc)
		for k := 1; k <= 4; k++ {
			links, found := MinLinkCut(etg, k)
			if !found {
				if !VerifyKReachable(etg, n, k) {
					return false // no witness but policy violated
				}
				continue
			}
			if VerifyKReachable(etg, n, k) {
				return false // witness against a holding policy
			}
			if len(links) >= k {
				return false // witness must use fewer than k failures
			}
			if etg.WithoutLinks(linkSet(n, links...)).G.PathExists(etg.Src, etg.Dst) {
				return false // witness does not disconnect
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
