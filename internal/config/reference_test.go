package config

// The configuration text layer as it was written before Print appended
// into one buffer and Parse read in place: a fmt printer and a
// strings.Split/strings.Fields parser. They are the references
// TestTextMatchesReference and FuzzParseConfig hold Print and Parse to.

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// referencePrint is Print as it was written with fmt: the reference the
// appending printer is held to, byte for byte.
func referencePrint(c *Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname %s\n", c.Hostname)
	if c.Waypoint {
		b.WriteString("waypoint\n")
	}
	for _, i := range c.Interfaces {
		b.WriteString("!\n")
		fmt.Fprintf(&b, "interface %s\n", i.Name)
		if i.Description != "" {
			fmt.Fprintf(&b, " description %s\n", i.Description)
		}
		if i.Address.IsValid() {
			fmt.Fprintf(&b, " ip address %s %s\n", i.Address.Addr(), maskFromBits(i.Address.Bits()))
		}
		if i.Cost > 0 {
			fmt.Fprintf(&b, " ip ospf cost %d\n", i.Cost)
		}
		if i.InACL != "" {
			fmt.Fprintf(&b, " ip access-group %s in\n", i.InACL)
		}
		if i.OutACL != "" {
			fmt.Fprintf(&b, " ip access-group %s out\n", i.OutACL)
		}
		if i.Waypoint {
			b.WriteString(" waypoint\n")
		}
		if i.Shutdown {
			b.WriteString(" shutdown\n")
		}
	}
	for _, a := range c.ACLs {
		b.WriteString("!\n")
		fmt.Fprintf(&b, "ip access-list extended %s\n", a.Name)
		for _, e := range a.Entries {
			b.WriteString(" " + refACLEntryText(e) + "\n")
		}
	}
	for _, s := range c.Statics {
		b.WriteString("!\n")
		b.WriteString(refStaticText(s) + "\n")
	}
	for _, r := range c.Routers {
		b.WriteString("!\n")
		fmt.Fprintf(&b, "router %s %d\n", r.Proto, r.ID)
		for _, rd := range r.Redistribute {
			b.WriteString(" " + refRedistributeText(rd) + "\n")
		}
		for _, pi := range r.Passive {
			fmt.Fprintf(&b, " passive-interface %s\n", pi)
		}
		for _, nl := range r.Networks {
			fmt.Fprintf(&b, " network %s %s area %d\n", nl.Addr, nl.Wildcard, nl.Area)
		}
		for _, dl := range r.DistributeListIn {
			fmt.Fprintf(&b, " distribute-list prefix %s in\n", dl)
		}
		for _, nb := range r.Neighbors {
			fmt.Fprintf(&b, " neighbor %s remote-as %d\n", nb.Addr, nb.RemoteAS)
		}
	}
	return b.String()
}

// refACLEntryText renders the ACL entry as a single configuration line.
func refACLEntryText(e ACLEntryLine) string {
	verb := "deny"
	if e.Permit {
		verb = "permit"
	}
	return fmt.Sprintf("%s ip %s %s", verb, refACLTarget(e.Src), refACLTarget(e.Dst))
}

// refStaticText renders a static route as a single configuration line.
func refStaticText(s *StaticRouteLine) string {
	line := fmt.Sprintf("ip route %s %s %s", s.Prefix.Addr(), maskFromBits(s.Prefix.Bits()), s.NextHop)
	if s.Distance > 0 {
		line += fmt.Sprintf(" %d", s.Distance)
	}
	return line
}

// refRedistributeText renders a redistribute statement.
func refRedistributeText(r RedistributeLine) string {
	if r.Source == "connected" || r.Source == "static" {
		return "redistribute " + r.Source
	}
	return fmt.Sprintf("redistribute %s %d", r.Source, r.ID)
}

func refACLTarget(p netip.Prefix) string {
	if !p.IsValid() {
		return "any"
	}
	return fmt.Sprintf("%s %s", p.Addr(), wildcardFromBits(p.Bits()))
}

// refParser walks a configuration line by line, dispatching top-level
// statements and block sub-statements.
type refParser struct {
	file  string
	lines []string
	pos   int
}

// referenceParse is Parse as it was written with strings.Split and
// strings.Fields: the reference the in-place parser is held to. Its
// errors inside a block name the line after the block.
func referenceParse(file, text string) (*Config, error) {
	p := &refParser{file: file, lines: strings.Split(text, "\n")}
	cfg := &Config{}
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		line := strings.TrimSpace(raw)
		p.pos++
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "hostname":
			if len(fields) != 2 {
				return nil, p.errf("hostname wants 1 argument")
			}
			cfg.Hostname = fields[1]
		case "waypoint":
			cfg.Waypoint = true
		case "interface":
			if len(fields) != 2 {
				return nil, p.errf("interface wants 1 argument")
			}
			stanza, err := p.parseInterface(fields[1])
			if err != nil {
				return nil, err
			}
			cfg.Interfaces = append(cfg.Interfaces, stanza)
		case "router":
			stanza, err := p.parseRouter(fields[1:])
			if err != nil {
				return nil, err
			}
			cfg.Routers = append(cfg.Routers, stanza)
		case "ip":
			if len(fields) >= 2 && fields[1] == "route" {
				sr, err := p.parseStatic(fields[2:])
				if err != nil {
					return nil, err
				}
				cfg.Statics = append(cfg.Statics, sr)
			} else if len(fields) >= 4 && fields[1] == "access-list" && fields[2] == "extended" {
				acl, err := p.parseACL(fields[3])
				if err != nil {
					return nil, err
				}
				cfg.ACLs = append(cfg.ACLs, acl)
			} else {
				return nil, p.errf("unknown ip statement %q", line)
			}
		default:
			return nil, p.errf("unknown statement %q", fields[0])
		}
	}
	if cfg.Hostname == "" {
		return nil, &ParseError{File: file, Line: 1, Msg: "missing hostname"}
	}
	return cfg, nil
}

// errf reports an error at the line just consumed.
func (p *refParser) errf(format string, args ...interface{}) error {
	return &ParseError{File: p.file, Line: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// blockLines consumes indented sub-statement lines until the next
// top-level statement, returning them trimmed.
func (p *refParser) blockLines() []string {
	var out []string
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "!") {
			p.pos++
			if trimmed == "!" {
				return out // "!" terminates a block, IOS style
			}
			continue
		}
		if !strings.HasPrefix(raw, " ") && !strings.HasPrefix(raw, "\t") {
			return out
		}
		p.pos++
		out = append(out, trimmed)
	}
	return out
}

func (p *refParser) parseInterface(name string) (*InterfaceStanza, error) {
	st := &InterfaceStanza{Name: name}
	for _, line := range p.blockLines() {
		fields := strings.Fields(line)
		switch {
		case fields[0] == "description":
			st.Description = strings.TrimSpace(strings.TrimPrefix(line, "description"))
		case fields[0] == "shutdown":
			st.Shutdown = true
		case fields[0] == "waypoint":
			st.Waypoint = true
		case fields[0] == "ip" && len(fields) >= 2 && fields[1] == "address":
			if len(fields) != 4 {
				return nil, p.errf("ip address wants ADDR MASK")
			}
			addr, err := parseAddr(fields[2])
			if err != nil {
				return nil, p.errf("bad address %q", fields[2])
			}
			mask, err := parseAddr(fields[3])
			if err != nil {
				return nil, p.errf("bad mask %q", fields[3])
			}
			st.Address, err = prefixFromMask(addr, mask)
			if err != nil {
				return nil, p.errf("%v", err)
			}
		case fields[0] == "ip" && len(fields) == 4 && fields[1] == "ospf" && fields[2] == "cost":
			cost, err := strconv.Atoi(fields[3])
			if err != nil || cost < 1 {
				return nil, p.errf("bad ospf cost %q", fields[3])
			}
			st.Cost = cost
		case fields[0] == "ip" && len(fields) == 4 && fields[1] == "access-group":
			switch fields[3] {
			case "in":
				st.InACL = fields[2]
			case "out":
				st.OutACL = fields[2]
			default:
				return nil, p.errf("access-group direction must be in or out")
			}
		default:
			return nil, p.errf("unknown interface statement %q", line)
		}
	}
	return st, nil
}

func (p *refParser) parseRouter(args []string) (*RouterStanza, error) {
	if len(args) != 2 {
		return nil, p.errf("router wants PROTO ID")
	}
	proto, ok := parseProtocol(args[0])
	if !ok {
		return nil, p.errf("unknown protocol %q", args[0])
	}
	id, err := strconv.Atoi(args[1])
	if err != nil {
		return nil, p.errf("bad process id %q", args[1])
	}
	st := &RouterStanza{Proto: proto, ID: id}
	for _, line := range p.blockLines() {
		fields := strings.Fields(line)
		switch fields[0] {
		case "network":
			if len(fields) != 3 && !(len(fields) == 5 && fields[3] == "area") {
				return nil, p.errf("network wants ADDR WILDCARD [area N]")
			}
			addr, err := parseAddr(fields[1])
			if err != nil {
				return nil, p.errf("bad network address %q", fields[1])
			}
			wild, err := parseAddr(fields[2])
			if err != nil {
				return nil, p.errf("bad wildcard %q", fields[2])
			}
			nl := NetworkLine{Addr: addr, Wildcard: wild}
			if len(fields) == 5 {
				nl.Area, err = strconv.Atoi(fields[4])
				if err != nil {
					return nil, p.errf("bad area %q", fields[4])
				}
			}
			st.Networks = append(st.Networks, nl)
		case "passive-interface":
			if len(fields) != 2 {
				return nil, p.errf("passive-interface wants 1 argument")
			}
			st.Passive = append(st.Passive, fields[1])
		case "redistribute":
			if len(fields) < 2 {
				return nil, p.errf("redistribute wants a source")
			}
			rl := RedistributeLine{Source: fields[1]}
			switch fields[1] {
			case "connected", "static":
				if len(fields) != 2 {
					return nil, p.errf("redistribute %s wants no arguments", fields[1])
				}
			case "ospf", "bgp", "rip":
				if len(fields) != 3 {
					return nil, p.errf("redistribute %s wants a process id", fields[1])
				}
				rl.ID, err = strconv.Atoi(fields[2])
				if err != nil {
					return nil, p.errf("bad process id %q", fields[2])
				}
			default:
				return nil, p.errf("unknown redistribute source %q", fields[1])
			}
			st.Redistribute = append(st.Redistribute, rl)
		case "distribute-list":
			if len(fields) != 4 || fields[1] != "prefix" || fields[3] != "in" {
				return nil, p.errf("distribute-list wants: prefix A.B.C.D/L in")
			}
			pfx, err := netip.ParsePrefix(fields[2])
			if err != nil || !pfx.Addr().Is4() {
				return nil, p.errf("bad prefix %q", fields[2])
			}
			st.DistributeListIn = append(st.DistributeListIn, pfx)
		case "neighbor":
			if len(fields) != 4 || fields[2] != "remote-as" {
				return nil, p.errf("neighbor wants: ADDR remote-as N")
			}
			addr, err := parseAddr(fields[1])
			if err != nil {
				return nil, p.errf("bad neighbor address %q", fields[1])
			}
			as, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, p.errf("bad AS %q", fields[3])
			}
			st.Neighbors = append(st.Neighbors, NeighborLine{Addr: addr, RemoteAS: as})
		default:
			return nil, p.errf("unknown router statement %q", line)
		}
	}
	return st, nil
}

func (p *refParser) parseStatic(args []string) (*StaticRouteLine, error) {
	if len(args) != 3 && len(args) != 4 {
		return nil, p.errf("ip route wants ADDR MASK NEXTHOP [DISTANCE]")
	}
	addr, err := parseAddr(args[0])
	if err != nil {
		return nil, p.errf("bad route address %q", args[0])
	}
	mask, err := parseAddr(args[1])
	if err != nil {
		return nil, p.errf("bad route mask %q", args[1])
	}
	pfx, err := prefixFromMask(addr, mask)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	nh, err := parseAddr(args[2])
	if err != nil {
		return nil, p.errf("bad next hop %q", args[2])
	}
	sr := &StaticRouteLine{Prefix: pfx, NextHop: nh}
	if len(args) == 4 {
		sr.Distance, err = strconv.Atoi(args[3])
		if err != nil || sr.Distance < 1 {
			return nil, p.errf("bad distance %q", args[3])
		}
	}
	return sr, nil
}

func (p *refParser) parseACL(name string) (*ACLStanza, error) {
	st := &ACLStanza{Name: name}
	for _, line := range p.blockLines() {
		entry, err := p.parseACLEntry(line)
		if err != nil {
			return nil, err
		}
		st.Entries = append(st.Entries, entry)
	}
	return st, nil
}

// parseACLEntry parses a single "permit|deny ip SRC DST" entry line.
func (p *refParser) parseACLEntry(line string) (ACLEntryLine, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[0] != "permit" && fields[0] != "deny") || fields[1] != "ip" {
		return ACLEntryLine{}, p.errf("ACL entry wants: permit|deny ip SRC DST")
	}
	entry := ACLEntryLine{Permit: fields[0] == "permit"}
	rest := fields[2:]
	src, rest, err := p.parseACLTarget(rest)
	if err != nil {
		return ACLEntryLine{}, err
	}
	dst, rest, err := p.parseACLTarget(rest)
	if err != nil {
		return ACLEntryLine{}, err
	}
	if len(rest) != 0 {
		return ACLEntryLine{}, p.errf("trailing tokens in ACL entry %q", line)
	}
	entry.Src, entry.Dst = src, dst
	return entry, nil
}

// parseACLTarget consumes "any" or "ADDR WILDCARD" from fields.
func (p *refParser) parseACLTarget(fields []string) (netip.Prefix, []string, error) {
	if len(fields) == 0 {
		return netip.Prefix{}, nil, p.errf("ACL entry missing target")
	}
	if fields[0] == "any" {
		return netip.Prefix{}, fields[1:], nil
	}
	if len(fields) < 2 {
		return netip.Prefix{}, nil, p.errf("ACL target wants ADDR WILDCARD")
	}
	addr, err := parseAddr(fields[0])
	if err != nil {
		return netip.Prefix{}, nil, p.errf("bad ACL address %q", fields[0])
	}
	wild, err := parseAddr(fields[1])
	if err != nil {
		return netip.Prefix{}, nil, p.errf("bad ACL wildcard %q", fields[1])
	}
	pfx, err := prefixFromWildcard(addr, wild)
	if err != nil {
		return netip.Prefix{}, nil, p.errf("%v", err)
	}
	return pfx, fields[2:], nil
}

// ReferencePrint and ReferenceParse expose the references to the
// external tests, which generate their networks with package generate.
var (
	ReferencePrint = referencePrint
	ReferenceParse = referenceParse
)
