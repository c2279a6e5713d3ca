package config

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/topology"
)

// ParseError reports a syntax or semantic error with its source location.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// parser reads a configuration one line at a time, in place: rest is the
// text not yet read and line the number of the line read last. Each
// statement is split into fields, a small array reused from line to line.
type parser struct {
	file   string
	rest   string
	eof    bool
	line   int
	fields []string
}

// Parse parses one device configuration. file is used in error messages.
func Parse(file, text string) (*Config, error) {
	p := &parser{file: file, rest: text, fields: make([]string, 0, 8)}
	cfg := &Config{}
	for {
		raw, ok := p.next()
		if !ok {
			break
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '!' {
			continue
		}
		if err := p.topLevel(cfg, line); err != nil {
			return nil, err
		}
	}
	if cfg.Hostname == "" {
		return nil, &ParseError{File: file, Line: 1, Msg: "missing hostname"}
	}
	return cfg, nil
}

// topLevel parses one top-level statement, reading its block if it opens
// one.
func (p *parser) topLevel(cfg *Config, line string) error {
	f := p.split(line)
	switch f[0] {
	case "hostname":
		if len(f) != 2 {
			return p.errf("hostname wants 1 argument")
		}
		cfg.Hostname = f[1]
	case "waypoint":
		cfg.Waypoint = true
	case "interface":
		if len(f) != 2 {
			return p.errf("interface wants 1 argument")
		}
		st := &InterfaceStanza{Name: f[1]}
		for line, ok := p.stmt(); ok; line, ok = p.stmt() {
			s, err := p.interfaceStmt(line, p.split(line))
			if err != nil {
				return err
			}
			s.put(st, false)
		}
		cfg.Interfaces = append(cfg.Interfaces, st)
	case "router":
		if len(f) != 3 {
			return p.errf("router wants PROTO ID")
		}
		proto, ok := parseProtocol(f[1])
		if !ok {
			return p.errf("unknown protocol %q", f[1])
		}
		id, err := strconv.Atoi(f[2])
		if err != nil {
			return p.errf("bad process id %q", f[2])
		}
		st := &RouterStanza{Proto: proto, ID: id}
		for line, ok := p.stmt(); ok; line, ok = p.stmt() {
			s, err := p.routerStmt(line, p.split(line))
			if err != nil {
				return err
			}
			s.add(st)
		}
		cfg.Routers = append(cfg.Routers, st)
	case "ip":
		switch {
		case len(f) >= 2 && f[1] == "route":
			sr, err := p.staticStmt(f[2:])
			if err != nil {
				return err
			}
			cfg.Statics = append(cfg.Statics, &sr)
		case len(f) >= 4 && f[1] == "access-list" && f[2] == "extended":
			st := &ACLStanza{Name: f[3]}
			for line, ok := p.stmt(); ok; line, ok = p.stmt() {
				e, err := p.aclStmt(line, p.split(line))
				if err != nil {
					return err
				}
				st.Entries = append(st.Entries, e)
			}
			cfg.ACLs = append(cfg.ACLs, st)
		default:
			return p.errf("unknown ip statement %q", line)
		}
	default:
		return p.errf("unknown statement %q", f[0])
	}
	return nil
}

// next reads the next line, untrimmed; it reports false at the end of the
// text.
func (p *parser) next() (string, bool) {
	if p.eof {
		return "", false
	}
	p.line++
	i := strings.IndexByte(p.rest, '\n')
	if i < 0 {
		raw := p.rest
		p.rest, p.eof = "", true
		return raw, true
	}
	raw := p.rest[:i]
	p.rest = p.rest[i+1:]
	return raw, true
}

// stmt reads the open block's next sub-statement, trimmed. It reports
// false at the block's end: a "!" line (IOS style), which it consumes, a
// line that is not indented, which it leaves for the top level, or the
// end of the text. Blank lines and "!" comments inside a block are
// skipped.
func (p *parser) stmt() (string, bool) {
	for {
		rest, eof, n := p.rest, p.eof, p.line
		raw, ok := p.next()
		if !ok {
			return "", false
		}
		line := strings.TrimSpace(raw)
		switch {
		case line == "!":
			return "", false
		case line == "" || line[0] == '!':
			continue
		case raw[0] != ' ' && raw[0] != '\t':
			p.rest, p.eof, p.line = rest, eof, n
			return "", false
		}
		return line, true
	}
}

// split cuts a trimmed, non-empty line into its fields, into the
// parser's reused array.
func (p *parser) split(line string) []string {
	p.fields = splitFields(p.fields[:0], line)
	return p.fields
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends to dst the fields of s separated by white space, as
// strings.Fields splits them.
func splitFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		space, size := false, 1
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// parseAddr parses an IPv4 address, the one address family of the
// dialect: masks and wildcards are dotted quads, and extraction matches
// addresses by their four bytes.
func parseAddr(s string) (netip.Addr, error) {
	a, err := netip.ParseAddr(s)
	if err == nil && !a.Is4() {
		err = fmt.Errorf("config: %s is not an IPv4 address", s)
	}
	return a, err
}

// errf reports an error at the line read last.
func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{File: p.file, Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func parseProtocol(s string) (topology.Protocol, bool) {
	switch s {
	case "ospf":
		return topology.OSPF, true
	case "bgp":
		return topology.BGP, true
	case "rip":
		return topology.RIP, true
	}
	return 0, false
}

// intfField names the interface field a sub-statement sets.
type intfField uint8

const (
	intfDescription intfField = iota
	intfShutdown
	intfWaypoint
	intfAddress
	intfCost
	intfInACL
	intfOutACL
)

// intfStmt is one interface sub-statement: the field it sets and the
// value it sets it to.
type intfStmt struct {
	field intfField
	text  string // the description, or the access-group's ACL name
	addr  netip.Prefix
	cost  int
}

// put writes the statement's value into st, or clears the field it names
// when remove is set.
func (s intfStmt) put(st *InterfaceStanza, remove bool) {
	if remove {
		s = intfStmt{field: s.field}
	}
	switch s.field {
	case intfDescription:
		st.Description = s.text
	case intfShutdown:
		st.Shutdown = !remove
	case intfWaypoint:
		st.Waypoint = !remove
	case intfAddress:
		st.Address = s.addr
	case intfCost:
		st.Cost = s.cost
	case intfInACL:
		st.InACL = s.text
	case intfOutACL:
		st.OutACL = s.text
	}
}

// interfaceStmt parses one interface sub-statement; f is line's fields.
func (p *parser) interfaceStmt(line string, f []string) (intfStmt, error) {
	switch {
	case f[0] == "description":
		return intfStmt{field: intfDescription, text: strings.TrimSpace(strings.TrimPrefix(line, "description"))}, nil
	case f[0] == "shutdown":
		return intfStmt{field: intfShutdown}, nil
	case f[0] == "waypoint":
		return intfStmt{field: intfWaypoint}, nil
	case f[0] == "ip" && len(f) >= 2 && f[1] == "address":
		if len(f) != 4 {
			return intfStmt{}, p.errf("ip address wants ADDR MASK")
		}
		addr, err := parseAddr(f[2])
		if err != nil {
			return intfStmt{}, p.errf("bad address %q", f[2])
		}
		mask, err := parseAddr(f[3])
		if err != nil {
			return intfStmt{}, p.errf("bad mask %q", f[3])
		}
		pfx, err := prefixFromMask(addr, mask)
		if err != nil {
			return intfStmt{}, p.errf("%v", err)
		}
		return intfStmt{field: intfAddress, addr: pfx}, nil
	case f[0] == "ip" && len(f) == 4 && f[1] == "ospf" && f[2] == "cost":
		cost, err := strconv.Atoi(f[3])
		if err != nil || cost < 1 {
			return intfStmt{}, p.errf("bad ospf cost %q", f[3])
		}
		return intfStmt{field: intfCost, cost: cost}, nil
	case f[0] == "ip" && len(f) == 4 && f[1] == "access-group":
		switch f[3] {
		case "in":
			return intfStmt{field: intfInACL, text: f[2]}, nil
		case "out":
			return intfStmt{field: intfOutACL, text: f[2]}, nil
		}
		return intfStmt{}, p.errf("access-group direction must be in or out")
	}
	return intfStmt{}, p.errf("unknown interface statement %q", line)
}

// routerList names the router stanza list a sub-statement adds to.
type routerList uint8

const (
	routerNetwork routerList = iota
	routerPassive
	routerRedistribute
	routerFilter
	routerNeighbor
)

// routerStmt is one router sub-statement: the list it belongs to and the
// element it adds.
type routerStmt struct {
	list     routerList
	network  NetworkLine
	passive  string
	redist   RedistributeLine
	filter   netip.Prefix
	neighbor NeighborLine
}

// add appends the statement's element to its list in rs.
func (s *routerStmt) add(rs *RouterStanza) {
	switch s.list {
	case routerNetwork:
		rs.Networks = append(rs.Networks, s.network)
	case routerPassive:
		rs.Passive = append(rs.Passive, s.passive)
	case routerRedistribute:
		rs.Redistribute = append(rs.Redistribute, s.redist)
	case routerFilter:
		rs.DistributeListIn = append(rs.DistributeListIn, s.filter)
	case routerNeighbor:
		rs.Neighbors = append(rs.Neighbors, s.neighbor)
	}
}

// remove deletes the first element of rs equal to the statement's — a
// neighbor is matched by its address — and reports whether there was one.
func (s *routerStmt) remove(rs *RouterStanza) bool {
	switch s.list {
	case routerNetwork:
		return removeFirst(&rs.Networks, func(x NetworkLine) bool { return x == s.network })
	case routerPassive:
		return removeFirst(&rs.Passive, func(x string) bool { return x == s.passive })
	case routerRedistribute:
		return removeFirst(&rs.Redistribute, func(x RedistributeLine) bool { return x == s.redist })
	case routerFilter:
		return removeFirst(&rs.DistributeListIn, func(x netip.Prefix) bool { return x == s.filter })
	}
	return removeFirst(&rs.Neighbors, func(x NeighborLine) bool { return x.Addr == s.neighbor.Addr })
}

// removeFirst deletes the first element of *list that match accepts and
// reports whether there was one.
func removeFirst[T any](list *[]T, match func(T) bool) bool {
	for i, have := range *list {
		if match(have) {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return true
		}
	}
	return false
}

// routerStmt parses one router sub-statement; f is line's fields.
func (p *parser) routerStmt(line string, f []string) (routerStmt, error) {
	switch f[0] {
	case "network":
		if len(f) != 3 && !(len(f) == 5 && f[3] == "area") {
			return routerStmt{}, p.errf("network wants ADDR WILDCARD [area N]")
		}
		addr, err := parseAddr(f[1])
		if err != nil {
			return routerStmt{}, p.errf("bad network address %q", f[1])
		}
		wild, err := parseAddr(f[2])
		if err != nil {
			return routerStmt{}, p.errf("bad wildcard %q", f[2])
		}
		nl := NetworkLine{Addr: addr, Wildcard: wild}
		if len(f) == 5 {
			nl.Area, err = strconv.Atoi(f[4])
			if err != nil {
				return routerStmt{}, p.errf("bad area %q", f[4])
			}
		}
		return routerStmt{list: routerNetwork, network: nl}, nil
	case "passive-interface":
		if len(f) != 2 {
			return routerStmt{}, p.errf("passive-interface wants 1 argument")
		}
		return routerStmt{list: routerPassive, passive: f[1]}, nil
	case "redistribute":
		if len(f) < 2 {
			return routerStmt{}, p.errf("redistribute wants a source")
		}
		rl := RedistributeLine{Source: f[1]}
		switch f[1] {
		case "connected", "static":
			if len(f) != 2 {
				return routerStmt{}, p.errf("redistribute %s wants no arguments", f[1])
			}
		case "ospf", "bgp", "rip":
			if len(f) != 3 {
				return routerStmt{}, p.errf("redistribute %s wants a process id", f[1])
			}
			id, err := strconv.Atoi(f[2])
			if err != nil {
				return routerStmt{}, p.errf("bad process id %q", f[2])
			}
			rl.ID = id
		default:
			return routerStmt{}, p.errf("unknown redistribute source %q", f[1])
		}
		return routerStmt{list: routerRedistribute, redist: rl}, nil
	case "distribute-list":
		if len(f) != 4 || f[1] != "prefix" || f[3] != "in" {
			return routerStmt{}, p.errf("distribute-list wants: prefix A.B.C.D/L in")
		}
		pfx, err := netip.ParsePrefix(f[2])
		if err != nil || !pfx.Addr().Is4() {
			return routerStmt{}, p.errf("bad prefix %q", f[2])
		}
		return routerStmt{list: routerFilter, filter: pfx}, nil
	case "neighbor":
		if len(f) != 4 || f[2] != "remote-as" {
			return routerStmt{}, p.errf("neighbor wants: ADDR remote-as N")
		}
		addr, err := parseAddr(f[1])
		if err != nil {
			return routerStmt{}, p.errf("bad neighbor address %q", f[1])
		}
		as, err := strconv.Atoi(f[3])
		if err != nil {
			return routerStmt{}, p.errf("bad AS %q", f[3])
		}
		return routerStmt{list: routerNeighbor, neighbor: NeighborLine{Addr: addr, RemoteAS: as}}, nil
	}
	return routerStmt{}, p.errf("unknown router statement %q", line)
}

// staticStmt parses the arguments of an "ip route" statement.
func (p *parser) staticStmt(args []string) (StaticRouteLine, error) {
	if len(args) != 3 && len(args) != 4 {
		return StaticRouteLine{}, p.errf("ip route wants ADDR MASK NEXTHOP [DISTANCE]")
	}
	addr, err := parseAddr(args[0])
	if err != nil {
		return StaticRouteLine{}, p.errf("bad route address %q", args[0])
	}
	mask, err := parseAddr(args[1])
	if err != nil {
		return StaticRouteLine{}, p.errf("bad route mask %q", args[1])
	}
	pfx, err := prefixFromMask(addr, mask)
	if err != nil {
		return StaticRouteLine{}, p.errf("%v", err)
	}
	nh, err := parseAddr(args[2])
	if err != nil {
		return StaticRouteLine{}, p.errf("bad next hop %q", args[2])
	}
	sr := StaticRouteLine{Prefix: pfx, NextHop: nh}
	if len(args) == 4 {
		sr.Distance, err = strconv.Atoi(args[3])
		if err != nil || sr.Distance < 1 {
			return StaticRouteLine{}, p.errf("bad distance %q", args[3])
		}
	}
	return sr, nil
}

// aclStmt parses one "permit|deny ip SRC DST" entry; f is line's fields.
func (p *parser) aclStmt(line string, f []string) (ACLEntryLine, error) {
	if len(f) < 2 || (f[0] != "permit" && f[0] != "deny") || f[1] != "ip" {
		return ACLEntryLine{}, p.errf("ACL entry wants: permit|deny ip SRC DST")
	}
	src, rest, err := p.aclTarget(f[2:])
	if err != nil {
		return ACLEntryLine{}, err
	}
	dst, rest, err := p.aclTarget(rest)
	if err != nil {
		return ACLEntryLine{}, err
	}
	if len(rest) != 0 {
		return ACLEntryLine{}, p.errf("trailing tokens in ACL entry %q", line)
	}
	return ACLEntryLine{Permit: f[0] == "permit", Src: src, Dst: dst}, nil
}

// aclTarget consumes "any" or "ADDR WILDCARD" from f.
func (p *parser) aclTarget(f []string) (netip.Prefix, []string, error) {
	if len(f) == 0 {
		return netip.Prefix{}, nil, p.errf("ACL entry missing target")
	}
	if f[0] == "any" {
		return netip.Prefix{}, f[1:], nil
	}
	if len(f) < 2 {
		return netip.Prefix{}, nil, p.errf("ACL target wants ADDR WILDCARD")
	}
	addr, err := parseAddr(f[0])
	if err != nil {
		return netip.Prefix{}, nil, p.errf("bad ACL address %q", f[0])
	}
	wild, err := parseAddr(f[1])
	if err != nil {
		return netip.Prefix{}, nil, p.errf("bad ACL wildcard %q", f[1])
	}
	pfx, err := prefixFromWildcard(addr, wild)
	if err != nil {
		return netip.Prefix{}, nil, p.errf("%v", err)
	}
	return pfx, f[2:], nil
}
