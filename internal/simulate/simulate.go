// Package simulate is an independent ground truth for ARC: a
// per-destination route computation and hop-by-hop forwarding simulator
// operating directly on the topology model, with no shared code with the
// ETG abstraction.
//
// For each destination subnet it computes every device's forwarding
// choice the way the modeled control plane would: static routes compete
// with the IGP by administrative distance, the IGP computes least-cost
// routes over the adjacency graph honoring route filters, and data
// packets then walk next hops with interface ACLs applied per hop.
//
// Tests use it to check ARC's central claim (§4.1): a tcETG contains a
// SRC→DST path iff the simulated network can deliver the traffic under
// some failure combination (pathset equivalence), and — for restricted
// configurations — that ETG shortest paths match simulated forwarding
// (path equivalence).
package simulate

import (
	"sort"

	"repro/internal/topology"
)

// Outcome of a forwarding walk.
type Outcome int

// Forwarding outcomes.
const (
	// Delivered: the packet reached the destination subnet.
	Delivered Outcome = iota
	// Dropped: a device had no route, or an ACL denied the packet.
	Dropped
	// Looped: forwarding revisited a device (routing loop).
	Looped
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Looped:
		return "looped"
	}
	return "?"
}

// route is a device's forwarding decision toward a destination.
type route struct {
	// nextLink carries traffic to the next device; nil when the
	// destination subnet is directly attached.
	nextLink *topology.Link
	// metric orders candidate routes: (adminDistance, igpCost).
	admin int
	cost  int64
	// ambiguous marks equal-best alternatives (ECMP); path-equivalence
	// checks treat these as non-deterministic.
	ambiguous bool
}

// Sim computes routes for one destination subnet under a failure set.
type Sim struct {
	n      *topology.Network
	dst    *topology.Subnet
	failed map[*topology.Link]bool
	routes map[*topology.Device]*route
}

// adminDistance of the modeled IGP (OSPF's Cisco default).
const igpAdmin = 110

// New computes the routing state for dst with the given failed links
// (nil = none).
func New(n *topology.Network, dst *topology.Subnet, failed map[*topology.Link]bool) *Sim {
	s := &Sim{n: n, dst: dst, failed: failed, routes: make(map[*topology.Device]*route)}
	s.compute()
	return s
}

// linkUp reports whether l is usable.
func (s *Sim) linkUp(l *topology.Link) bool { return l != nil && !s.failed[l] }

// attachedDevices returns devices directly attached to the destination
// subnet.
func (s *Sim) attachedDevices() []*topology.Device {
	var out []*topology.Device
	for _, d := range s.n.Devices() {
		for _, intf := range d.Interfaces() {
			if intf.Subnet == s.dst {
				out = append(out, d)
			}
		}
	}
	return out
}

// igpBlocks reports whether every process on d filters routes to dst
// (no process can supply an IGP route). A single non-filtering process
// suffices to install the route.
func (s *Sim) igpBlocks(d *topology.Device) bool {
	for _, p := range d.Processes {
		if !p.BlocksDestination(s.dst.Prefix) {
			return false
		}
	}
	return len(d.Processes) > 0
}

// adjacencyUp reports whether an IGP adjacency runs over link l.
func adjacencyUp(l *topology.Link) bool {
	for _, pa := range l.A.Device.Processes {
		for _, pb := range l.B.Device.Processes {
			if pa.Proto != pb.Proto {
				continue
			}
			if pa.UsesInterface(l.A) && pb.UsesInterface(l.B) &&
				!pa.IsPassive(l.A) && !pb.IsPassive(l.B) {
				return true
			}
		}
	}
	return false
}

// advertises reports whether device d would advertise its route toward
// dst to a neighbor (some process on d has the route and does not filter
// it).
func (s *Sim) advertises(d *topology.Device) bool { return !s.igpBlocks(d) }

// compute runs a Bellman-Ford-style per-destination route computation:
// attached devices originate at cost 0; a device adopts the least-cost
// route via an up adjacency to an advertising neighbor, unless its own
// processes filter the destination. Static routes then override by
// administrative distance.
func (s *Sim) compute() {
	const inf = int64(1) << 40
	costs := map[*topology.Device]int64{}
	for _, d := range s.n.Devices() {
		costs[d] = inf
	}
	for _, d := range s.attachedDevices() {
		if !s.igpBlocks(d) {
			costs[d] = 0
			s.routes[d] = &route{nextLink: nil, admin: igpAdmin, cost: 0}
		}
	}
	// Relax until fixpoint (graphs are small).
	for changed := true; changed; {
		changed = false
		for _, l := range s.n.Links {
			if !s.linkUp(l) || !adjacencyUp(l) {
				continue
			}
			for _, dir := range [2][2]*topology.Interface{{l.A, l.B}, {l.B, l.A}} {
				from, to := dir[0], dir[1] // route flows to → from? No: data flows from→to
				d := from.Device
				nbr := to.Device
				if s.igpBlocks(d) || costs[nbr] >= inf || !s.advertises(nbr) {
					continue
				}
				cand := costs[nbr] + int64(from.Cost)
				switch {
				case cand < costs[d]:
					costs[d] = cand
					s.routes[d] = &route{nextLink: l, admin: igpAdmin, cost: cand}
					changed = true
				case cand == costs[d] && s.routes[d] != nil && s.routes[d].nextLink != l && s.routes[d].admin == igpAdmin:
					s.routes[d].ambiguous = true
				}
			}
		}
	}
	// Static routes override when their administrative distance beats the
	// IGP's (or provide the only route).
	for _, d := range s.n.Devices() {
		for _, sr := range d.Statics {
			if sr.Prefix != s.dst.Prefix {
				continue
			}
			link, ok := s.staticLink(d, sr)
			if !ok {
				continue // next hop unreachable (failed link)
			}
			cur := s.routes[d]
			switch {
			case cur == nil || sr.Distance < cur.admin:
				s.routes[d] = &route{nextLink: link, admin: sr.Distance, cost: int64(sr.Distance)}
			case sr.Distance == cur.admin && cur.nextLink != link:
				cur.ambiguous = true
			}
		}
	}
}

// staticLink resolves a static route's next hop to the link carrying it.
func (s *Sim) staticLink(d *topology.Device, sr *topology.StaticRoute) (*topology.Link, bool) {
	for _, intf := range d.Interfaces() {
		l := intf.Link
		if !s.linkUp(l) {
			continue
		}
		peer := intf.Peer()
		if peer.Prefix.IsValid() && peer.Prefix.Addr() == sr.NextHop {
			return l, true
		}
	}
	return nil, false
}

// NextHop returns the device's forwarding choice toward the destination:
// the link to use (nil if directly attached), whether any route exists,
// and whether the choice is ambiguous (ECMP).
func (s *Sim) NextHop(d *topology.Device) (link *topology.Link, hasRoute, ambiguous bool) {
	r := s.routes[d]
	if r == nil {
		return nil, false, false
	}
	return r.nextLink, true, r.ambiguous
}

// aclAllows applies the interface ACL in the given direction to the
// traffic class.
func aclAllows(intf *topology.Interface, in bool, tc topology.TrafficClass) bool {
	name := intf.OutACL
	if in {
		name = intf.InACL
	}
	if name == "" {
		return true
	}
	return !intf.Device.ACLs[name].Blocks(tc.Src.Prefix, tc.Dst.Prefix)
}

// Trace is a detailed forwarding result.
type Trace struct {
	Outcome   Outcome
	Devices   []string
	Ambiguous bool
	// Waypoint reports whether the packet crossed an on-path middlebox
	// (a waypoint link or a waypoint device).
	Waypoint bool
}

// ForwardTrace is Forward with middlebox traversal tracking.
func ForwardTrace(n *topology.Network, tc topology.TrafficClass, failed map[*topology.Link]bool) Trace {
	s := New(n, tc.Dst, failed)
	var entry *topology.Device
	var entryIntf *topology.Interface
	for _, d := range n.Devices() {
		for _, intf := range d.Interfaces() {
			if intf.Subnet == tc.Src {
				entry, entryIntf = d, intf
			}
		}
	}
	if entry == nil || !aclAllows(entryIntf, true, tc) {
		return Trace{Outcome: Dropped}
	}
	tr := Trace{Devices: []string{entry.Name}}
	visited := map[*topology.Device]bool{}
	cur := entry
	for {
		if visited[cur] {
			tr.Outcome = Looped
			return tr
		}
		visited[cur] = true
		if cur.Waypoint {
			tr.Waypoint = true
		}
		link, hasRoute, amb := s.NextHop(cur)
		tr.Ambiguous = tr.Ambiguous || amb
		if !hasRoute {
			tr.Outcome = Dropped
			return tr
		}
		if link == nil {
			for _, intf := range cur.Interfaces() {
				if intf.Subnet == tc.Dst {
					if !aclAllows(intf, false, tc) {
						tr.Outcome = Dropped
						return tr
					}
					tr.Outcome = Delivered
					return tr
				}
			}
			tr.Outcome = Dropped
			return tr
		}
		if link.Waypoint {
			tr.Waypoint = true
		}
		var out, in *topology.Interface
		if link.A.Device == cur {
			out, in = link.A, link.B
		} else {
			out, in = link.B, link.A
		}
		if !aclAllows(out, false, tc) || !aclAllows(in, true, tc) {
			tr.Outcome = Dropped
			return tr
		}
		cur = in.Device
		tr.Devices = append(tr.Devices, cur.Name)
	}
}

// AlwaysTraversesWaypoint reports whether, under every failure subset of
// the network's links, delivered traffic of class tc crossed a waypoint
// (the ground truth for PC2).
func AlwaysTraversesWaypoint(n *topology.Network, tc topology.TrafficClass) bool {
	return WaypointUnderFailures(n, tc, len(n.Links))
}

// ForEachFailureSet enumerates every subset of the network's links with at
// most maxFail elements — including the empty set — and calls visit with
// each. The map passed to visit is reused across calls; visit must not
// retain it. Returning false from visit stops the enumeration early, and
// ForEachFailureSet reports whether every visit returned true.
func ForEachFailureSet(n *topology.Network, maxFail int, visit func(failed map[*topology.Link]bool) bool) bool {
	links := n.Links
	if maxFail > len(links) {
		maxFail = len(links)
	}
	var rec func(start int, failed map[*topology.Link]bool, budget int) bool
	rec = func(start int, failed map[*topology.Link]bool, budget int) bool {
		if !visit(failed) {
			return false
		}
		if budget == 0 {
			return true
		}
		for i := start; i < len(links); i++ {
			failed[links[i]] = true
			ok := rec(i+1, failed, budget-1)
			delete(failed, links[i])
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0, map[*topology.Link]bool{}, maxFail)
}

// BlockedUnderFailures reports whether tc is never delivered under any
// failure set of at most maxFail links (the bounded ground truth for PC1).
func BlockedUnderFailures(n *topology.Network, tc topology.TrafficClass, maxFail int) bool {
	return ForEachFailureSet(n, maxFail, func(failed map[*topology.Link]bool) bool {
		out, _, _ := Forward(n, tc, failed)
		return out != Delivered
	})
}

// WaypointUnderFailures reports whether every delivery of tc under any
// failure set of at most maxFail links crossed a waypoint (the bounded
// ground truth for PC2).
func WaypointUnderFailures(n *topology.Network, tc topology.TrafficClass, maxFail int) bool {
	return ForEachFailureSet(n, maxFail, func(failed map[*topology.Link]bool) bool {
		tr := ForwardTrace(n, tc, failed)
		return tr.Outcome != Delivered || tr.Waypoint
	})
}

// Forward walks a packet of traffic class tc from its source attachment
// into the network, returning the outcome and the device path taken.
// Ambiguous (ECMP) choices follow the recorded route deterministically
// but are reported via the final return.
func Forward(n *topology.Network, tc topology.TrafficClass, failed map[*topology.Link]bool) (Outcome, []string, bool) {
	s := New(n, tc.Dst, failed)
	// The packet enters at a device attached to the source subnet.
	var entry *topology.Device
	var entryIntf *topology.Interface
	for _, d := range n.Devices() {
		for _, intf := range d.Interfaces() {
			if intf.Subnet == tc.Src {
				entry, entryIntf = d, intf
			}
		}
	}
	if entry == nil {
		return Dropped, nil, false
	}
	// Host-facing ingress ACL.
	if !aclAllows(entryIntf, true, tc) {
		return Dropped, nil, false
	}
	visited := map[*topology.Device]bool{}
	cur := entry
	path := []string{cur.Name}
	ambiguous := false
	for {
		if visited[cur] {
			return Looped, path, ambiguous
		}
		visited[cur] = true
		link, hasRoute, amb := s.NextHop(cur)
		ambiguous = ambiguous || amb
		if !hasRoute {
			return Dropped, path, ambiguous
		}
		if link == nil {
			// Directly attached: egress host interface ACL.
			for _, intf := range cur.Interfaces() {
				if intf.Subnet == tc.Dst {
					if !aclAllows(intf, false, tc) {
						return Dropped, path, ambiguous
					}
					return Delivered, path, ambiguous
				}
			}
			return Dropped, path, ambiguous
		}
		// Egress ACL on our side, ingress ACL on the far side.
		var out, in *topology.Interface
		if link.A.Device == cur {
			out, in = link.A, link.B
		} else {
			out, in = link.B, link.A
		}
		if !aclAllows(out, false, tc) || !aclAllows(in, true, tc) {
			return Dropped, path, ambiguous
		}
		cur = in.Device
		path = append(path, cur.Name)
	}
}

// ReachableUnderSomeFailure reports whether tc can be delivered under any
// failure combination of at most maxFailures links (including none).
func ReachableUnderSomeFailure(n *topology.Network, tc topology.TrafficClass, maxFailures int) bool {
	return !ForEachFailureSet(n, maxFailures, func(failed map[*topology.Link]bool) bool {
		out, _, _ := Forward(n, tc, failed)
		return out != Delivered // stop (return false) once delivered
	})
}

// DeliveredUnderAllFailures reports whether tc is delivered under every
// failure combination of fewer than k links.
func DeliveredUnderAllFailures(n *topology.Network, tc topology.TrafficClass, k int) bool {
	links := n.Links
	m := k - 1
	if m > len(links) {
		m = len(links)
	}
	var rec func(start int, failed map[*topology.Link]bool, remaining int) bool
	rec = func(start int, failed map[*topology.Link]bool, remaining int) bool {
		if remaining == 0 {
			out, _, _ := Forward(n, tc, failed)
			return out == Delivered
		}
		for i := start; i <= len(links)-remaining; i++ {
			failed[links[i]] = true
			ok := rec(i+1, failed, remaining-1)
			delete(failed, links[i])
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0, map[*topology.Link]bool{}, m)
}

// ReachableBySteering reports whether tc meets PC3's path-set reading of
// k-reachability (ARC §4.1) on the configured network: k disjoint
// abstract paths promise that after any k-1 failed links a usable path
// survives, not that shortest-path routing takes it, since an ACL on the
// preferred path drops traffic without rerouting it. So from every
// failure set of at most k-1 links, tc must be delivered once at most
// steerBudget further links fail to steer routing onto the surviving
// path. DeliveredUnderAllFailures is the stricter delivery reading.
func ReachableBySteering(n *topology.Network, tc topology.TrafficClass, k int) bool {
	return ForEachFailureSet(n, k-1, func(failed map[*topology.Link]bool) bool {
		return steerable(n, tc, failed, steerBudget)
	})
}

// steerBudget bounds how many extra links ReachableBySteering may fail to
// steer routing onto a surviving path.
const steerBudget = 4

// steerable reports whether tc can be delivered from the given failure
// set, possibly after failing up to budget additional links. The search
// is guided: when the walk drops, the candidate links to fail are the
// next-hop choices of the devices along the observed walk (failing one
// makes its device reroute). The failed map is restored before returning.
func steerable(n *topology.Network, tc topology.TrafficClass, failed map[*topology.Link]bool, budget int) bool {
	out, path, _ := Forward(n, tc, failed)
	if out == Delivered {
		return true
	}
	if budget == 0 {
		return false
	}
	// Collect each walked device's current next-hop link.
	sim := New(n, tc.Dst, failed)
	var candidates []*topology.Link
	for _, name := range path {
		d := n.Device(name)
		if d == nil {
			continue
		}
		if l, hasRoute, _ := sim.NextHop(d); hasRoute && l != nil && !failed[l] {
			candidates = append(candidates, l)
		}
	}
	for _, l := range candidates {
		failed[l] = true
		ok := steerable(n, tc, failed, budget-1)
		delete(failed, l)
		if ok {
			return true
		}
	}
	return false
}

// SortedDeviceNames is a debugging helper listing devices with routes.
func (s *Sim) SortedDeviceNames() []string {
	var out []string
	for d := range s.routes {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}
