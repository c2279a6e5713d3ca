package config

import (
	"fmt"
	"net/netip"
	"strings"
)

// Apply makes one LineChange on the configuration. It is the only code
// that edits a parsed configuration: every mutator's edit goes through
// it, and replaying a recorded plan onto another copy calls it too. It
// parses lc.Line with the regular config parser, so a change that Apply
// accepts is guaranteed to re-parse; unknown lines or inapplicable edits
// (removing a line that is not present, modifying one that does not
// exist) are errors. ACL additions honor lc.Prepend, preserving
// first-match semantics.
func (c *Config) Apply(lc LineChange) error {
	p := &parser{file: "apply(" + lc.Device + ")"}
	switch {
	case lc.Section == "":
		return c.applyTopLevel(p, lc)
	case strings.HasPrefix(lc.Section, "interface "):
		return c.applyInterface(p, lc, strings.TrimPrefix(lc.Section, "interface "))
	case strings.HasPrefix(lc.Section, "ip access-list extended "):
		return c.applyACL(p, lc, strings.TrimPrefix(lc.Section, "ip access-list extended "))
	case strings.HasPrefix(lc.Section, "router "):
		return c.applyRouter(p, lc)
	}
	return fmt.Errorf("config: apply: unknown section %q", lc.Section)
}

func (c *Config) applyTopLevel(p *parser, lc LineChange) error {
	fields := strings.Fields(lc.Line)
	if len(fields) < 2 || fields[0] != "ip" || fields[1] != "route" {
		return fmt.Errorf("config: apply: unknown top-level line %q", lc.Line)
	}
	sr, err := p.parseStatic(fields[2:])
	if err != nil {
		return err
	}
	switch lc.Op {
	case OpAdd:
		c.Statics = append(c.Statics, sr)
		return nil
	case OpRemove:
		for i, have := range c.Statics {
			if have.Prefix == sr.Prefix && have.NextHop == sr.NextHop {
				c.Statics = append(c.Statics[:i], c.Statics[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: apply: no static route %s via %s to remove", sr.Prefix, sr.NextHop)
	case OpModify:
		for _, have := range c.Statics {
			if have.Prefix == sr.Prefix && have.NextHop == sr.NextHop {
				have.Distance = sr.Distance
				return nil
			}
		}
		return fmt.Errorf("config: apply: no static route %s via %s to modify", sr.Prefix, sr.NextHop)
	}
	return fmt.Errorf("config: apply: bad op %v", lc.Op)
}

func (c *Config) applyInterface(p *parser, lc LineChange, name string) error {
	intf := c.Interface(name)
	if intf == nil {
		return fmt.Errorf("config: apply: no interface %s", name)
	}
	// Parse the single sub-statement into a scratch stanza; whichever field
	// it populates identifies the construct.
	p.lines = []string{" " + lc.Line}
	p.pos = 0
	tmp, err := p.parseInterface(name)
	if err != nil {
		return err
	}
	switch {
	case tmp.Waypoint:
		intf.Waypoint = lc.Op != OpRemove
	case tmp.Shutdown:
		intf.Shutdown = lc.Op != OpRemove
	case tmp.Description != "":
		if lc.Op == OpRemove {
			intf.Description = ""
		} else {
			intf.Description = tmp.Description
		}
	case tmp.Cost != 0:
		if lc.Op == OpRemove {
			if intf.Cost != tmp.Cost {
				return fmt.Errorf("config: apply: interface %s cost is %d, not %d", name, intf.Cost, tmp.Cost)
			}
			intf.Cost = 0
		} else {
			intf.Cost = tmp.Cost
		}
	case tmp.InACL != "" || tmp.OutACL != "":
		set := func(slot *string, want string) error {
			if lc.Op == OpRemove {
				if *slot != want {
					return fmt.Errorf("config: apply: interface %s access-group is %q, not %q", name, *slot, want)
				}
				*slot = ""
				return nil
			}
			*slot = want
			return nil
		}
		if tmp.InACL != "" {
			return set(&intf.InACL, tmp.InACL)
		}
		return set(&intf.OutACL, tmp.OutACL)
	case tmp.Address.IsValid():
		if lc.Op == OpRemove {
			intf.Address = netip.Prefix{}
		} else {
			intf.Address = tmp.Address
		}
	default:
		return fmt.Errorf("config: apply: unsupported interface line %q", lc.Line)
	}
	return nil
}

func (c *Config) applyACL(p *parser, lc LineChange, name string) error {
	entry, err := p.parseACLEntry(lc.Line)
	if err != nil {
		return err
	}
	acl := c.ACL(name)
	switch lc.Op {
	case OpAdd:
		if acl == nil {
			acl = &ACLStanza{Name: name}
			c.ACLs = append(c.ACLs, acl)
		}
		if lc.Prepend {
			acl.Entries = append([]ACLEntryLine{entry}, acl.Entries...)
		} else {
			acl.Entries = append(acl.Entries, entry)
		}
		return nil
	case OpRemove:
		if acl == nil {
			return fmt.Errorf("config: apply: no ACL %s", name)
		}
		for i, e := range acl.Entries {
			if e == entry {
				acl.Entries = append(acl.Entries[:i], acl.Entries[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: apply: ACL %s has no entry %q", name, lc.Line)
	}
	return fmt.Errorf("config: apply: bad ACL op %v", lc.Op)
}

func (c *Config) applyRouter(p *parser, lc LineChange) error {
	var protoName string
	var id int
	if _, err := fmt.Sscanf(lc.Section, "router %s %d", &protoName, &id); err != nil {
		return fmt.Errorf("config: apply: bad router section %q", lc.Section)
	}
	proto, ok := parseProtocol(protoName)
	if !ok {
		return fmt.Errorf("config: apply: unknown protocol %q", protoName)
	}
	rs := c.Router(proto, id)
	if rs == nil {
		return fmt.Errorf("config: apply: no router %s %d", proto, id)
	}
	p.lines = []string{" " + lc.Line}
	p.pos = 0
	tmp, err := p.parseRouter([]string{protoName, fmt.Sprint(id)})
	if err != nil {
		return err
	}
	switch {
	case len(tmp.Passive) == 1:
		return applyListEdit(lc, &rs.Passive, tmp.Passive[0], lc.Line)
	case len(tmp.Networks) == 1:
		return applyListEdit(lc, &rs.Networks, tmp.Networks[0], lc.Line)
	case len(tmp.Redistribute) == 1:
		return applyListEdit(lc, &rs.Redistribute, tmp.Redistribute[0], lc.Line)
	case len(tmp.DistributeListIn) == 1:
		return applyListEdit(lc, &rs.DistributeListIn, tmp.DistributeListIn[0], lc.Line)
	case len(tmp.Neighbors) == 1:
		nb := tmp.Neighbors[0]
		switch lc.Op {
		case OpAdd:
			rs.Neighbors = append(rs.Neighbors, nb)
			return nil
		case OpRemove:
			for i, have := range rs.Neighbors {
				if have.Addr == nb.Addr {
					rs.Neighbors = append(rs.Neighbors[:i], rs.Neighbors[i+1:]...)
					return nil
				}
			}
			return fmt.Errorf("config: apply: no neighbor %s to remove", nb.Addr)
		}
		return fmt.Errorf("config: apply: bad neighbor op %v", lc.Op)
	}
	return fmt.Errorf("config: apply: unsupported router line %q", lc.Line)
}

// applyListEdit adds or removes one element of a router stanza list.
func applyListEdit[T comparable](lc LineChange, list *[]T, elem T, line string) error {
	switch lc.Op {
	case OpAdd:
		*list = append(*list, elem)
		return nil
	case OpRemove:
		for i, have := range *list {
			if have == elem {
				*list = append((*list)[:i], (*list)[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: apply: no line %q to remove", line)
	}
	return fmt.Errorf("config: apply: bad op %v for %q", lc.Op, line)
}
