package compress

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harc"
	"repro/internal/topology"
)

// partition is an equivalence partition of a network's devices.
type partition struct {
	classOf map[string]int // device name → class index
	classes [][]string     // class index → sorted member names
}

// Prepared is the half of refinement that reads the network alone and
// not the request: every device's signature material rendered once, so
// that the sub-problems of one repair — which compress the same network
// for different endpoints — share it instead of each re-rendering every
// interface in every round. It is immutable and safe for concurrent
// Builds.
type Prepared struct {
	n    *topology.Network
	devs []prepDevice // aligned with n.Devices()
}

// prepDevice holds the strings seedSig and roundSig assemble for one
// device.
type prepDevice struct {
	d *topology.Device
	// head is the seed signature's endpoint-independent opening: waypoint
	// role, processes, static routes.
	head string
	// lnk lists the seed lines of the link interfaces, sorted; subs those of
	// the host-facing interfaces, which count only for relevant subnets.
	lnk  []string
	subs []prepSub
	// plain is the whole seed signature of the device when none of its
	// subnets is relevant: head followed by lnk.
	plain string
	// edges are roundSig's lines — one per link interface, one per static
	// route — minus the class numbers.
	edges []prepEdge
}

type prepSub struct {
	subnet *topology.Subnet
	line   string
}

// prepEdge is one roundSig line, split around the class number of the
// device at its far end ("" for a static route that resolves to none).
type prepEdge struct {
	before, peer, after string
}

// Prepare renders the network-only part of the signatures. Build(n, spec)
// is Prepare(n).Build(spec); a caller with several specs for one network
// prepares once. A device's rendering reads that device and its link
// peers only, so devices render in parallel, each into its own slot.
func Prepare(n *topology.Network) *Prepared {
	devs := n.Devices()
	p := &Prepared{n: n, devs: make([]prepDevice, len(devs))}
	harc.ParallelFor(len(devs), runtime.GOMAXPROCS(0), func(i int) { p.devs[i].render(devs[i]) })
	return p
}

// render fills pd with device d's signature material.
func (pd *prepDevice) render(d *topology.Device) {
	pd.d = d
	pd.head = seedHead(d)
	for _, intf := range d.Interfaces() {
		attrs := intfAttrSig(d, intf)
		switch {
		case intf.Subnet != nil:
			pd.subs = append(pd.subs, prepSub{intf.Subnet, "sub " + intf.Subnet.Name + " " + attrs})
		case intf.Link != nil:
			pd.lnk = append(pd.lnk, "lnk "+attrs)
		}
		if peer := intf.Peer(); peer != nil {
			pd.edges = append(pd.edges, prepEdge{
				before: "e c",
				peer:   peer.Device.Name,
				after:  " " + attrs + " | " + intfAttrSig(peer.Device, peer) + " | ",
			})
		}
	}
	sort.Strings(pd.lnk)
	pd.plain = pd.head + joinLines(pd.lnk)
	for _, sr := range d.Statics {
		e := prepEdge{before: "s " + sr.Prefix.String() + " c"}
		if peer := staticPeer(d, sr); peer != nil {
			e.peer = peer.Name
		}
		pd.edges = append(pd.edges, e)
	}
}

func joinLines(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// refine computes the coarsest role-equivalence partition that the seed
// signatures and neighborhood structure support. The seed splits on
// everything locally observable in a device's configuration; each
// refinement round re-splits on the multiset of incident edge
// signatures (peer class plus both endpoints' edge attributes) until
// the partition reaches a fixed point. Classes only ever split, so the
// loop terminates in at most |devices| rounds.
func (p *Prepared) refine(relevant map[*topology.Subnet]bool) *partition {
	devs := p.n.Devices()
	sigs := make(map[string]string, len(devs))
	for i := range p.devs {
		sigs[devs[i].Name] = p.devs[i].seedSig(relevant)
	}
	part := groupBySig(devs, sigs)
	for {
		for i := range p.devs {
			sigs[devs[i].Name] = p.devs[i].roundSig(part.classOf)
		}
		next := groupBySig(devs, sigs)
		if len(next.classes) == len(part.classes) {
			return next
		}
		part = next
	}
}

// groupBySig partitions devices by signature, assigning class indices
// in sorted-signature order so the numbering is deterministic.
func groupBySig(devs []*topology.Device, sigs map[string]string) *partition {
	members := make(map[string][]string)
	for _, d := range devs {
		s := sigs[d.Name]
		members[s] = append(members[s], d.Name)
	}
	order := make([]string, 0, len(members))
	for s := range members {
		order = append(order, s)
	}
	sort.Strings(order)
	p := &partition{classOf: make(map[string]int, len(devs))}
	for _, s := range order {
		ms := members[s]
		sort.Strings(ms)
		for _, name := range ms {
			p.classOf[name] = len(p.classes)
		}
		p.classes = append(p.classes, ms)
	}
	return p
}

// seedSig renders everything locally observable about a device: policy
// endpoints — the devices a relevant subnet attaches to — stay singletons,
// and the protocol mix, redistribution graph, route filters, static
// routes, host attachments, ACL contents, link costs and waypoint role all
// split the partition. Differing in a single ACL entry, link weight or
// static route therefore lands two otherwise identical devices in
// distinct classes. Irrelevant subnets contribute no slots to the problem
// and are dropped from the quotient entirely, so they do not show.
func (pd *prepDevice) seedSig(relevant map[*topology.Subnet]bool) string {
	var intfs []string
	for _, sub := range pd.subs {
		if relevant[sub.subnet] {
			intfs = append(intfs, sub.line)
		}
	}
	if intfs == nil {
		return pd.plain
	}
	intfs = append(intfs, pd.lnk...)
	sort.Strings(intfs)
	// Policy endpoints are pinned concrete by name.
	return "!" + pd.d.Name + "\n" + pd.head + joinLines(intfs)
}

// seedHead renders the part of a device's seed signature that precedes
// its interfaces.
func seedHead(d *topology.Device) string {
	var b strings.Builder
	if d.Waypoint {
		b.WriteString("wp\n")
	}
	for _, p := range sortedProcs(d) {
		fmt.Fprintf(&b, "proc %s%d rc=%t", p.Proto, p.ID, p.RedistributeConnected)
		var redist []string
		for _, rp := range p.RedistributesFrom {
			redist = append(redist, fmt.Sprintf("%s%d", rp.Proto, rp.ID))
		}
		sort.Strings(redist)
		b.WriteString(" redist=" + strings.Join(redist, ","))
		var filters []string
		for _, f := range p.RouteFilters {
			filters = append(filters, f.String())
		}
		sort.Strings(filters)
		b.WriteString(" filter=" + strings.Join(filters, ",") + "\n")
	}
	var statics []string
	for _, sr := range d.Statics {
		// Next-hop addresses are link-local and differ across otherwise
		// symmetric members; where the route points is captured by the
		// neighborhood rounds (roundSig resolves the next hop's device).
		statics = append(statics, fmt.Sprintf("st %s d%d", sr.Prefix, sr.Distance))
	}
	sort.Strings(statics)
	b.WriteString(joinLines(statics))
	return b.String()
}

// intfAttrSig renders one interface's slot-relevant attributes: cost,
// ACL contents, link waypoint, and which processes run over it (and
// whether passively).
func intfAttrSig(d *topology.Device, intf *topology.Interface) string {
	var procs []string
	for _, p := range d.Processes {
		if p.UsesInterface(intf) {
			tag := fmt.Sprintf("%s%d", p.Proto, p.ID)
			if p.IsPassive(intf) {
				tag += "~"
			}
			procs = append(procs, tag)
		}
	}
	sort.Strings(procs)
	wp := intf.Link != nil && intf.Link.Waypoint
	return fmt.Sprintf("c%d wp=%t in=%s out=%s use=%s",
		intf.Cost, wp, aclSig(d, intf.InACL), aclSig(d, intf.OutACL), strings.Join(procs, ","))
}

// aclSig renders an ACL reference by name and full entry list, so a
// one-entry difference splits the class.
func aclSig(d *topology.Device, name string) string {
	if name == "" {
		return "-"
	}
	a := d.ACLs[name]
	if a == nil {
		return "!" + name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, e := range a.Entries {
		b.WriteByte(';')
		if e.Permit {
			b.WriteByte('p')
		} else {
			b.WriteByte('d')
		}
		b.WriteString(e.Src.String())
		b.WriteByte('>')
		b.WriteString(e.Dst.String())
	}
	return b.String()
}

// roundSig renders one refinement round's view of a device: its current
// class plus the sorted multiset of incident edge signatures, each
// naming the peer's class and both endpoints' edge attributes, plus the
// class each static route's next hop resolves to.
func (pd *prepDevice) roundSig(classOf map[string]int) string {
	edges := make([]string, 0, len(pd.edges))
	for _, e := range pd.edges {
		pc := -1
		if e.peer != "" {
			pc = classOf[e.peer]
		}
		edges = append(edges, e.before+strconv.Itoa(pc)+e.after)
	}
	sort.Strings(edges)
	return strconv.Itoa(classOf[pd.d.Name]) + "\n" + joinLines(edges)
}

// staticPeer resolves the device a static route's next hop points at:
// the peer device of the link interface whose far-end address equals
// the next hop (mirroring arc.Slot.StaticBacked's matching rule).
func staticPeer(d *topology.Device, sr *topology.StaticRoute) *topology.Device {
	for _, intf := range d.Interfaces() {
		peer := intf.Peer()
		if peer != nil && peer.Prefix.IsValid() && peer.Prefix.Addr() == sr.NextHop {
			return peer.Device
		}
	}
	return nil
}

// sortedProcs returns the device's processes ordered by (proto, id).
func sortedProcs(d *topology.Device) []*topology.Process {
	out := append([]*topology.Process(nil), d.Processes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proto != out[j].Proto {
			return out[i].Proto < out[j].Proto
		}
		return out[i].ID < out[j].ID
	})
	return out
}
