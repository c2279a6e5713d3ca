package config

import (
	"net/netip"
	"strconv"
)

// Print renders the configuration in canonical form. Parse(Print(c)) is
// the identity on the AST, and the printed form is the unit in which
// repair sizes ("lines of configuration changed") are measured. Every
// line is appended into one buffer sized for the whole configuration;
// the line helpers the mutators record edits with append the same bytes.
func (c *Config) Print() string {
	b := make([]byte, 0, c.printSize())
	b = appendLine(b, "hostname ", c.Hostname)
	if c.Waypoint {
		b = append(b, "waypoint\n"...)
	}
	for _, i := range c.Interfaces {
		b = appendLine(append(b, "!\n"...), "interface ", i.Name)
		if i.Description != "" {
			b = appendLine(b, " description ", i.Description)
		}
		if i.Address.IsValid() {
			b = append(b, " ip address "...)
			b = i.Address.Addr().AppendTo(b)
			b = append(maskFromBits(i.Address.Bits()).AppendTo(append(b, ' ')), '\n')
		}
		if i.Cost > 0 {
			b = append(appendCost(append(b, ' '), i.Cost), '\n')
		}
		if i.InACL != "" {
			b = append(appendAccessGroup(append(b, ' '), i.InACL, "in"), '\n')
		}
		if i.OutACL != "" {
			b = append(appendAccessGroup(append(b, ' '), i.OutACL, "out"), '\n')
		}
		if i.Waypoint {
			b = append(b, " waypoint\n"...)
		}
		if i.Shutdown {
			b = append(b, " shutdown\n"...)
		}
	}
	for _, a := range c.ACLs {
		b = appendLine(append(b, "!\n"...), "ip access-list extended ", a.Name)
		for _, e := range a.Entries {
			b = append(e.appendTo(append(b, ' ')), '\n')
		}
	}
	for _, s := range c.Statics {
		b = append(s.appendTo(append(b, "!\n"...)), '\n')
	}
	for _, r := range c.Routers {
		b = append(b, "!\nrouter "...)
		b = append(b, r.Proto.String()...)
		b = append(strconv.AppendInt(append(b, ' '), int64(r.ID), 10), '\n')
		for _, rd := range r.Redistribute {
			b = append(rd.appendTo(append(b, ' ')), '\n')
		}
		for _, pi := range r.Passive {
			b = appendLine(b, " passive-interface ", pi)
		}
		for _, nl := range r.Networks {
			b = append(nl.appendTo(append(b, ' ')), '\n')
		}
		for _, dl := range r.DistributeListIn {
			b = append(appendFilter(append(b, ' '), dl), '\n')
		}
		for _, nb := range r.Neighbors {
			b = append(nb.appendTo(append(b, ' ')), '\n')
		}
	}
	return string(b)
}

// lineMax bounds the bytes a printed line takes besides the names in it
// (an ACL entry with two address-and-wildcard targets takes 77 with its
// indent and newline).
const lineMax = 80

// printSize bounds the length of c's printed form: the capacity Print
// starts from.
func (c *Config) printSize() int {
	n := lineMax + len(c.Hostname)
	for _, i := range c.Interfaces {
		// The stanza's lines take at most 169 bytes besides its names.
		n += 3*lineMax + len(i.Name) + len(i.Description) + len(i.InACL) + len(i.OutACL)
	}
	for _, a := range c.ACLs {
		n += lineMax*(1+len(a.Entries)) + len(a.Name)
	}
	n += lineMax * len(c.Statics)
	for _, r := range c.Routers {
		n += lineMax * (1 + len(r.Redistribute) + len(r.Passive) + len(r.Networks) + len(r.DistributeListIn) + len(r.Neighbors))
		for _, pi := range r.Passive {
			n += len(pi)
		}
	}
	return n
}

// appendLine appends one line: a keyword and a name.
func appendLine(b []byte, keyword, name string) []byte {
	return append(append(append(b, keyword...), name...), '\n')
}

// appendTo appends the ACL entry's line: "permit|deny ip SRC DST".
func (e ACLEntryLine) appendTo(b []byte) []byte {
	if e.Permit {
		b = append(b, "permit ip "...)
	} else {
		b = append(b, "deny ip "...)
	}
	return appendACLTarget(append(appendACLTarget(b, e.Src), ' '), e.Dst)
}

// text renders the ACL entry as a single configuration line.
func (e ACLEntryLine) text() string { return string(e.appendTo(make([]byte, 0, lineMax))) }

func appendACLTarget(b []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(b, "any"...)
	}
	b = p.Addr().AppendTo(b)
	return wildcardFromBits(p.Bits()).AppendTo(append(b, ' '))
}

// appendTo appends the static route's line: "ip route ADDR MASK NH [DIST]".
func (s *StaticRouteLine) appendTo(b []byte) []byte {
	b = s.Prefix.Addr().AppendTo(append(b, "ip route "...))
	b = maskFromBits(s.Prefix.Bits()).AppendTo(append(b, ' '))
	b = s.NextHop.AppendTo(append(b, ' '))
	if s.Distance > 0 {
		b = strconv.AppendInt(append(b, ' '), int64(s.Distance), 10)
	}
	return b
}

// text renders a static route as a single configuration line.
func (s *StaticRouteLine) text() string { return string(s.appendTo(make([]byte, 0, lineMax))) }

// appendTo appends the redistribute statement.
func (r RedistributeLine) appendTo(b []byte) []byte {
	b = append(append(b, "redistribute "...), r.Source...)
	if r.Source == "connected" || r.Source == "static" {
		return b
	}
	return strconv.AppendInt(append(b, ' '), int64(r.ID), 10)
}

// text renders a redistribute statement.
func (r RedistributeLine) text() string { return string(r.appendTo(make([]byte, 0, lineMax))) }

// appendTo appends the network statement: "network ADDR WILDCARD area N".
func (nl NetworkLine) appendTo(b []byte) []byte {
	b = nl.Addr.AppendTo(append(b, "network "...))
	b = nl.Wildcard.AppendTo(append(b, ' '))
	return strconv.AppendInt(append(b, " area "...), int64(nl.Area), 10)
}

// text renders a network statement.
func (nl NetworkLine) text() string { return string(nl.appendTo(make([]byte, 0, lineMax))) }

// appendTo appends the BGP neighbor statement.
func (nb NeighborLine) appendTo(b []byte) []byte {
	b = nb.Addr.AppendTo(append(b, "neighbor "...))
	return strconv.AppendInt(append(b, " remote-as "...), int64(nb.RemoteAS), 10)
}

// text renders a BGP neighbor statement.
func (nb NeighborLine) text() string { return string(nb.appendTo(make([]byte, 0, lineMax))) }

// appendFilter appends a route filter: "distribute-list prefix P in".
func appendFilter(b []byte, dst netip.Prefix) []byte {
	return append(dst.AppendTo(append(b, "distribute-list prefix "...)), " in"...)
}

// filterText renders a route filter line.
func filterText(dst netip.Prefix) string { return string(appendFilter(make([]byte, 0, lineMax), dst)) }

// appendCost appends an interface's "ip ospf cost N".
func appendCost(b []byte, cost int) []byte {
	return strconv.AppendInt(append(b, "ip ospf cost "...), int64(cost), 10)
}

// costText renders an interface cost line.
func costText(cost int) string { return string(appendCost(make([]byte, 0, lineMax), cost)) }

// appendAccessGroup appends "ip access-group NAME DIR".
func appendAccessGroup(b []byte, acl, dir string) []byte {
	return append(append(append(append(b, "ip access-group "...), acl...), ' '), dir...)
}
