// Package config implements the router configuration language CPR
// operates on: an IOS-flavored dialect covering exactly the constructs ARC
// models (paper §9) — interfaces, OSPF/BGP/RIP processes, static routes,
// ACLs, route filters (distribute-lists), and route redistribution.
//
// The package provides parsing (Parse), printing (Print), a structural
// copy (Clone), semantic extraction to a topology.Network (Extract), and
// the mutation operations the repair translator needs (mutate.go). A
// mutator reads the configuration, decides which lines to add, remove or
// modify, and makes those edits through Apply, the one code path that
// writes a parsed configuration; the lines it returns are the edit, so
// repair sizes are measured in real lines of configuration, as in the
// paper's evaluation, and every recorded line re-parses by construction.
package config

import (
	"fmt"
	"net/netip"

	"repro/internal/topology"
)

// Config is the parsed configuration of one device.
type Config struct {
	Hostname string
	// Waypoint marks a middlebox attached to the device itself (rare; link
	// waypoints are declared on interfaces).
	Waypoint   bool
	Interfaces []*InterfaceStanza
	Routers    []*RouterStanza
	Statics    []*StaticRouteLine
	ACLs       []*ACLStanza
}

// InterfaceStanza mirrors an "interface <name>" block.
type InterfaceStanza struct {
	Name        string
	Description string
	Address     netip.Prefix // from "ip address A.B.C.D M.M.M.M"
	Cost        int          // from "ip ospf cost N"; 0 means default (1)
	InACL       string       // from "ip access-group NAME in"
	OutACL      string       // from "ip access-group NAME out"
	Waypoint    bool         // from "waypoint": on-path middlebox on the attached link
	Shutdown    bool
}

// RouterStanza mirrors a "router <proto> <id>" block.
type RouterStanza struct {
	Proto    topology.Protocol
	ID       int
	Networks []NetworkLine // "network A.B.C.D W.W.W.W [area N]"
	Passive  []string      // "passive-interface <name>"
	// Redistribute lists redistribution sources: "connected", "static", or
	// "<proto> <id>".
	Redistribute []RedistributeLine
	// DistributeListIn lists destination prefixes whose routes the process
	// blocks: "distribute-list prefix A.B.C.D/L in".
	DistributeListIn []netip.Prefix
	Neighbors        []NeighborLine // BGP: "neighbor A.B.C.D remote-as N"
}

// NetworkLine is an OSPF/RIP network statement selecting interfaces.
type NetworkLine struct {
	Addr     netip.Addr
	Wildcard netip.Addr // wildcard mask (0 bits match)
	Area     int
}

// RedistributeLine names a redistribution source.
type RedistributeLine struct {
	Source string // "connected", "static", "ospf", "bgp", "rip"
	ID     int    // process id when Source is a protocol
}

// NeighborLine is a BGP neighbor statement.
type NeighborLine struct {
	Addr     netip.Addr
	RemoteAS int
}

// StaticRouteLine mirrors "ip route A.B.C.D M.M.M.M NH [distance]".
type StaticRouteLine struct {
	Prefix   netip.Prefix
	NextHop  netip.Addr
	Distance int // 0 means default (1)
}

// ACLStanza mirrors "ip access-list extended <name>".
type ACLStanza struct {
	Name    string
	Entries []ACLEntryLine
}

// ACLEntryLine mirrors "permit|deny ip <src> <dst>" where src/dst are
// "any" or "A.B.C.D W.W.W.W" (wildcard mask).
type ACLEntryLine struct {
	Permit bool
	Src    netip.Prefix // invalid prefix means "any"
	Dst    netip.Prefix // invalid prefix means "any"
}

// blocks reports whether the ACL denies the (src, dst) pair under
// first-match semantics with implicit deny (mirrors topology.ACL.Blocks)..
func (a *ACLStanza) Blocks(src, dst netip.Prefix) bool {
	if a == nil || len(a.Entries) == 0 {
		return false
	}
	match := func(p, q netip.Prefix) bool {
		return !p.IsValid() || (p.Contains(q.Addr()) && p.Bits() <= q.Bits())
	}
	for _, e := range a.Entries {
		if match(e.Src, src) && match(e.Dst, dst) {
			return !e.Permit
		}
	}
	return true
}

// Clone returns a deep copy of c that shares no slice or stanza with it.
// An empty list is nil, as Parse leaves it, so the clone of a parsed
// configuration equals what parsing its printed form returns.
func (c *Config) Clone() *Config {
	return &Config{
		Hostname: c.Hostname,
		Waypoint: c.Waypoint,
		Interfaces: cloneStanzas(c.Interfaces, func(st *InterfaceStanza) InterfaceStanza {
			return *st
		}),
		Routers: cloneStanzas(c.Routers, func(st *RouterStanza) RouterStanza {
			rs := *st
			rs.Networks = cloneList(st.Networks)
			rs.Passive = cloneList(st.Passive)
			rs.Redistribute = cloneList(st.Redistribute)
			rs.DistributeListIn = cloneList(st.DistributeListIn)
			rs.Neighbors = cloneList(st.Neighbors)
			return rs
		}),
		Statics: cloneStanzas(c.Statics, func(sr *StaticRouteLine) StaticRouteLine {
			return *sr
		}),
		ACLs: cloneStanzas(c.ACLs, func(st *ACLStanza) ACLStanza {
			return ACLStanza{Name: st.Name, Entries: cloneList(st.Entries)}
		}),
	}
}

// cloneStanzas copies a list of stanzas, each with dup, into one backing
// array; an empty list becomes nil.
func cloneStanzas[T any](list []*T, dup func(*T) T) []*T {
	if len(list) == 0 {
		return nil
	}
	backing := make([]T, len(list))
	out := make([]*T, len(list))
	for i, st := range list {
		backing[i] = dup(st)
		out[i] = &backing[i]
	}
	return out
}

// cloneList copies a stanza's list; an empty one becomes nil.
func cloneList[T any](list []T) []T {
	if len(list) == 0 {
		return nil
	}
	return append([]T(nil), list...)
}

// Interface returns the interface stanza with the given name, or nil.
func (c *Config) Interface(name string) *InterfaceStanza {
	for _, i := range c.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Router returns the router stanza for (proto, id), or nil.
func (c *Config) Router(proto topology.Protocol, id int) *RouterStanza {
	for _, r := range c.Routers {
		if r.Proto == proto && r.ID == id {
			return r
		}
	}
	return nil
}

// ACL returns the ACL stanza with the given name, or nil.
func (c *Config) ACL(name string) *ACLStanza {
	for _, a := range c.ACLs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// prefixFromMask builds a prefix from an address and a subnet mask.
func prefixFromMask(addr, mask netip.Addr) (netip.Prefix, error) {
	bits, ok := maskBits(mask)
	if !ok {
		return netip.Prefix{}, fmt.Errorf("config: invalid netmask %s", mask)
	}
	return netip.PrefixFrom(addr, bits), nil
}

// maskBits converts a contiguous subnet mask to a bit count.
func maskBits(mask netip.Addr) (int, bool) {
	b := mask.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	return bits, v == 0
}

// maskFromBits renders a bit count as a dotted subnet mask.
func maskFromBits(bits int) netip.Addr {
	var v uint32
	if bits > 0 {
		v = ^uint32(0) << (32 - bits)
	}
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// wildcardFromBits renders a bit count as a dotted wildcard mask.
func wildcardFromBits(bits int) netip.Addr {
	var v uint32 = ^uint32(0)
	if bits > 0 {
		v = ^(^uint32(0) << (32 - bits))
	}
	if bits == 0 {
		v = ^uint32(0)
	}
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// prefixFromWildcard builds a prefix from an address and a wildcard mask.
func prefixFromWildcard(addr, wild netip.Addr) (netip.Prefix, error) {
	b := wild.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	inv := ^v
	bits := 0
	for inv&0x80000000 != 0 {
		bits++
		inv <<= 1
	}
	if inv != 0 {
		return netip.Prefix{}, fmt.Errorf("config: non-contiguous wildcard %s", wild)
	}
	return netip.PrefixFrom(addr, bits), nil
}
