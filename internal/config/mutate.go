package config

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"

	"repro/internal/topology"
)

// Op is the kind of a single-line configuration edit.
type Op int

// Line edit operations.
const (
	OpAdd Op = iota
	OpRemove
	OpModify
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpRemove:
		return "-"
	case OpModify:
		return "~"
	}
	return "?"
}

// LineChange records one line of configuration added, removed, or modified
// on a device. The paper's minimality objective counts these.
type LineChange struct {
	Device  string
	Op      Op
	Section string // enclosing stanza header, or "" for top level
	Line    string
	// Prepend marks an added line that must precede the section's existing
	// lines (ACL entries are order-sensitive under first-match semantics).
	// It does not affect change counting; Apply honors it.
	Prepend bool
}

// String renders the change as a diff-style line.
func (lc LineChange) String() string {
	where := lc.Device
	if lc.Section != "" {
		where += " [" + lc.Section + "]"
	}
	return fmt.Sprintf("%s %s: %s", lc.Op, where, lc.Line)
}

// sectionRouter names a router stanza for LineChange.Section.
func sectionRouter(proto topology.Protocol, id int) string {
	return "router " + proto.String() + " " + strconv.Itoa(id)
}

// sectionACL names an ACL stanza.
func sectionACL(name string) string { return "ip access-list extended " + name }

// sectionInterface names an interface stanza.
func sectionInterface(name string) string { return "interface " + name }

// change builds a LineChange on this device.
func (c *Config) change(op Op, section, line string) LineChange {
	return LineChange{Device: c.Hostname, Op: op, Section: section, Line: line}
}

// edit applies lcs in order through Apply and returns them. Mutators only
// read the configuration to decide which lines change; edit is how those
// lines reach it, so a mutator's edit is written once, in Apply.
func (c *Config) edit(lcs ...LineChange) ([]LineChange, error) {
	for _, lc := range lcs {
		if err := c.Apply(lc); err != nil {
			return nil, err
		}
	}
	return lcs, nil
}

// aclOn returns the name of the ACL attached to intf in the given
// direction ("in" or "out"), or "" when none is.
func (c *Config) aclOn(intfName, dir string) (string, error) {
	intf := c.Interface(intfName)
	if intf == nil {
		return "", fmt.Errorf("config: %s has no interface %s", c.Hostname, intfName)
	}
	if dir == "out" {
		return intf.OutACL, nil
	}
	return intf.InACL, nil
}

// router returns the (proto, id) router stanza, or an error naming it.
func (c *Config) router(proto topology.Protocol, id int) (*RouterStanza, error) {
	rs := c.Router(proto, id)
	if rs == nil {
		return nil, fmt.Errorf("config: %s has no router %s %d", c.Hostname, proto, id)
	}
	return rs, nil
}

// AddACLDeny ensures traffic (src→dst) is denied when crossing intf in the
// given direction ("in" or "out"). If no ACL is attached it creates one
// (deny entry plus trailing permit-any) and attaches it; if one is attached
// it prepends a deny entry. Returns the line edits performed.
func (c *Config) AddACLDeny(intfName, dir string, src, dst netip.Prefix) ([]LineChange, error) {
	aclName, err := c.aclOn(intfName, dir)
	if err != nil {
		return nil, err
	}
	entry := ACLEntryLine{Permit: false, Src: src, Dst: dst}
	if aclName == "" {
		// Create a fresh ACL and attach it.
		aclName = "CPR-" + intfName + "-" + dir
		for i := 2; c.ACL(aclName) != nil; i++ {
			aclName = "CPR-" + intfName + "-" + dir + "-" + strconv.Itoa(i)
		}
		return c.edit(
			c.change(OpAdd, sectionACL(aclName), entry.text()),
			c.change(OpAdd, sectionACL(aclName), "permit ip any any"),
			c.change(OpAdd, sectionInterface(intfName), string(appendAccessGroup(nil, aclName, dir))),
		)
	}
	acl := c.ACL(aclName)
	if acl == nil {
		return nil, fmt.Errorf("config: %s references missing ACL %s", c.Hostname, aclName)
	}
	// Idempotence: if the ACL already denies the pair, nothing to do
	// (shared ACLs across interfaces hit this).
	if acl.Blocks(src, dst) {
		return nil, nil
	}
	// Prepending a deny is always correct and costs a single line.
	lc := c.change(OpAdd, sectionACL(aclName), entry.text())
	lc.Prepend = true
	return c.edit(lc)
}

// RemoveACLDeny ensures traffic (src→dst) is permitted across intf in the
// given direction: if the attached ACL has a deny entry exactly matching
// the pair, and the ACL without it lets the pair through, the entry is
// removed; otherwise a permit entry is prepended.
func (c *Config) RemoveACLDeny(intfName, dir string, src, dst netip.Prefix) ([]LineChange, error) {
	aclName, err := c.aclOn(intfName, dir)
	if err != nil || aclName == "" {
		return nil, err // nothing blocks; no change needed
	}
	acl := c.ACL(aclName)
	if acl == nil {
		return nil, fmt.Errorf("config: %s references missing ACL %s", c.Hostname, aclName)
	}
	if !acl.Blocks(src, dst) {
		return nil, nil // already permitted; idempotent
	}
	for i, e := range acl.Entries {
		if !e.Permit && e.Src == src && e.Dst == dst {
			// A broader entry may still block the pair; then fall through
			// to prepend a permit instead.
			rest := ACLStanza{Entries: append(acl.Entries[:i:i], acl.Entries[i+1:]...)}
			if !rest.Blocks(src, dst) {
				return c.edit(c.change(OpRemove, sectionACL(aclName), e.text()))
			}
			break
		}
	}
	lc := c.change(OpAdd, sectionACL(aclName), ACLEntryLine{Permit: true, Src: src, Dst: dst}.text())
	lc.Prepend = true
	return c.edit(lc)
}

// EnableAdjacency makes the process form an adjacency over intf: it
// removes a passive-interface line if present, otherwise adds a network
// statement covering the interface address.
func (c *Config) EnableAdjacency(proto topology.Protocol, id int, intfName string) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	if err != nil {
		return nil, err
	}
	if slices.Contains(rs.Passive, intfName) {
		return c.edit(c.change(OpRemove, sectionRouter(proto, id), "passive-interface "+intfName))
	}
	intf := c.Interface(intfName)
	if intf == nil || !intf.Address.IsValid() {
		return nil, fmt.Errorf("config: %s interface %s has no address", c.Hostname, intfName)
	}
	nl := NetworkLine{Addr: intf.Address.Addr(), Wildcard: netip.IPv4Unspecified()}
	return c.edit(c.change(OpAdd, sectionRouter(proto, id), nl.text()))
}

// DisableAdjacency stops the process from forming an adjacency over intf
// by adding a passive-interface line.
func (c *Config) DisableAdjacency(proto topology.Protocol, id int, intfName string) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	if err != nil || slices.Contains(rs.Passive, intfName) {
		return nil, err // already passive
	}
	return c.edit(c.change(OpAdd, sectionRouter(proto, id), "passive-interface "+intfName))
}

// AddBGPNeighbor adds a neighbor statement to the BGP process with the
// given ASN; idempotent.
func (c *Config) AddBGPNeighbor(id int, addr netip.Addr, remoteAS int) ([]LineChange, error) {
	rs, err := c.router(topology.BGP, id)
	if err != nil || slices.ContainsFunc(rs.Neighbors, func(nb NeighborLine) bool { return nb.Addr == addr }) {
		return nil, err
	}
	return c.edit(c.change(OpAdd, sectionRouter(topology.BGP, id), NeighborLine{Addr: addr, RemoteAS: remoteAS}.text()))
}

// RemoveBGPNeighbor deletes the neighbor statement for addr; idempotent.
func (c *Config) RemoveBGPNeighbor(id int, addr netip.Addr) ([]LineChange, error) {
	rs, err := c.router(topology.BGP, id)
	if err != nil {
		return nil, err
	}
	for _, nb := range rs.Neighbors {
		if nb.Addr == addr {
			return c.edit(c.change(OpRemove, sectionRouter(topology.BGP, id), nb.text()))
		}
	}
	return nil, nil
}

// staticRoute returns the static route for (prefix, nextHop), or nil.
func (c *Config) staticRoute(prefix netip.Prefix, nextHop netip.Addr) *StaticRouteLine {
	for _, sr := range c.Statics {
		if sr.Prefix == prefix && sr.NextHop == nextHop {
			return sr
		}
	}
	return nil
}

// AddStaticRoute appends an "ip route" line.
func (c *Config) AddStaticRoute(prefix netip.Prefix, nextHop netip.Addr, distance int) ([]LineChange, error) {
	sr := StaticRouteLine{Prefix: prefix, NextHop: nextHop, Distance: distance}
	return c.edit(c.change(OpAdd, "", sr.text()))
}

// RemoveStaticRoute deletes the static route for (prefix, nextHop); it
// returns no change if no such route exists.
func (c *Config) RemoveStaticRoute(prefix netip.Prefix, nextHop netip.Addr) ([]LineChange, error) {
	sr := c.staticRoute(prefix, nextHop)
	if sr == nil {
		return nil, nil
	}
	return c.edit(c.change(OpRemove, "", sr.text()))
}

// AddRouteFilter blocks routes to dst on the process via a distribute-list
// line.
func (c *Config) AddRouteFilter(proto topology.Protocol, id int, dst netip.Prefix) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	if err != nil || slices.Contains(rs.DistributeListIn, dst) {
		return nil, err // already filtered
	}
	return c.edit(c.change(OpAdd, sectionRouter(proto, id), filterText(dst)))
}

// RemoveRouteFilter removes the distribute-list line for dst.
func (c *Config) RemoveRouteFilter(proto topology.Protocol, id int, dst netip.Prefix) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	if err != nil || !slices.Contains(rs.DistributeListIn, dst) {
		return nil, err
	}
	return c.edit(c.change(OpRemove, sectionRouter(proto, id), filterText(dst)))
}

// AddRedistribute enables route redistribution from (srcProto, srcID) into
// the process.
func (c *Config) AddRedistribute(proto topology.Protocol, id int, srcProto topology.Protocol, srcID int) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	rl := RedistributeLine{Source: srcProto.String(), ID: srcID}
	if err != nil || slices.Contains(rs.Redistribute, rl) {
		return nil, err
	}
	return c.edit(c.change(OpAdd, sectionRouter(proto, id), rl.text()))
}

// RemoveRedistribute disables route redistribution from (srcProto, srcID).
func (c *Config) RemoveRedistribute(proto topology.Protocol, id int, srcProto topology.Protocol, srcID int) ([]LineChange, error) {
	rs, err := c.router(proto, id)
	rl := RedistributeLine{Source: srcProto.String(), ID: srcID}
	if err != nil || !slices.Contains(rs.Redistribute, rl) {
		return nil, err
	}
	return c.edit(c.change(OpRemove, sectionRouter(proto, id), rl.text()))
}

// SetStaticDistance changes the administrative distance of an existing
// static route; one modified line.
func (c *Config) SetStaticDistance(prefix netip.Prefix, nextHop netip.Addr, distance int) ([]LineChange, error) {
	sr := c.staticRoute(prefix, nextHop)
	if sr == nil || sr.Distance == distance {
		return nil, nil
	}
	mod := *sr
	mod.Distance = distance
	return c.edit(c.change(OpModify, "", mod.text()))
}

// SetWaypoint adds or removes the waypoint marker on an interface
// (modeling middlebox attachment on the adjacent link).
func (c *Config) SetWaypoint(intfName string, present bool) ([]LineChange, error) {
	intf := c.Interface(intfName)
	if intf == nil {
		return nil, fmt.Errorf("config: %s has no interface %s", c.Hostname, intfName)
	}
	if intf.Waypoint == present {
		return nil, nil
	}
	op := OpAdd
	if !present {
		op = OpRemove
	}
	return c.edit(c.change(op, sectionInterface(intfName), "waypoint"))
}

// SetInterfaceCost changes the routing cost of intf; it counts as a single
// modified line (or an added line when no explicit cost was configured).
func (c *Config) SetInterfaceCost(intfName string, cost int) ([]LineChange, error) {
	intf := c.Interface(intfName)
	if intf == nil {
		return nil, fmt.Errorf("config: %s has no interface %s", c.Hostname, intfName)
	}
	if intf.Cost == cost {
		return nil, nil
	}
	op := OpModify
	if intf.Cost == 0 {
		op = OpAdd
	}
	return c.edit(c.change(op, sectionInterface(intfName), costText(cost)))
}
