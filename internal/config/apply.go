package config

import (
	"fmt"
	"strconv"
	"strings"
)

// Apply makes one LineChange on the configuration. It is the only code
// that edits a parsed configuration: every mutator's edit goes through
// it, and replaying a recorded plan onto another copy calls it too. It
// parses lc.Line with the statement parser the file parser uses for the
// section's sub-statements, so a change that Apply accepts is guaranteed
// to re-parse; unknown lines or inapplicable edits (removing a line that
// is not present, modifying one that does not exist) are errors. A parse
// error names the edit as line 1 of the file "apply(<device>)". ACL
// additions honor lc.Prepend, preserving first-match semantics.
func (c *Config) Apply(lc LineChange) error {
	err := c.apply(lc)
	if pe, ok := err.(*ParseError); ok {
		pe.File = "apply(" + lc.Device + ")"
	}
	return err
}

func (c *Config) apply(lc LineChange) error {
	p := parser{line: 1}
	line := strings.TrimSpace(lc.Line)
	var buf [8]string
	f := splitFields(buf[:0], line)
	if len(f) == 0 || line[0] == '!' {
		return fmt.Errorf("config: apply: empty line %q", lc.Line)
	}
	if lc.Section == "" {
		return c.applyTopLevel(&p, lc, f)
	}
	if name, ok := strings.CutPrefix(lc.Section, "interface "); ok {
		return c.applyInterface(&p, lc, name, line, f)
	}
	if name, ok := strings.CutPrefix(lc.Section, "ip access-list extended "); ok {
		return c.applyACL(&p, lc, name, line, f)
	}
	if hdr, ok := strings.CutPrefix(lc.Section, "router "); ok {
		return c.applyRouter(&p, lc, hdr, line, f)
	}
	return fmt.Errorf("config: apply: unknown section %q", lc.Section)
}

func (c *Config) applyTopLevel(p *parser, lc LineChange, f []string) error {
	if len(f) < 2 || f[0] != "ip" || f[1] != "route" {
		return fmt.Errorf("config: apply: unknown top-level line %q", lc.Line)
	}
	sr, err := p.staticStmt(f[2:])
	if err != nil {
		return err
	}
	switch lc.Op {
	case OpAdd:
		c.Statics = append(c.Statics, &sr)
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

func (c *Config) applyInterface(p *parser, lc LineChange, name, line string, f []string) error {
	intf := c.Interface(name)
	if intf == nil {
		return fmt.Errorf("config: apply: no interface %s", name)
	}
	s, err := p.interfaceStmt(line, f)
	if err != nil {
		return err
	}
	if s.field == intfDescription && s.text == "" {
		return fmt.Errorf("config: apply: unsupported interface line %q", lc.Line)
	}
	if lc.Op == OpRemove {
		switch s.field {
		case intfCost:
			if intf.Cost != s.cost {
				return fmt.Errorf("config: apply: interface %s cost is %d, not %d", name, intf.Cost, s.cost)
			}
		case intfInACL, intfOutACL:
			have := intf.InACL
			if s.field == intfOutACL {
				have = intf.OutACL
			}
			if have != s.text {
				return fmt.Errorf("config: apply: interface %s access-group is %q, not %q", name, have, s.text)
			}
		}
	}
	s.put(intf, lc.Op == OpRemove)
	return nil
}

func (c *Config) applyACL(p *parser, lc LineChange, name, line string, f []string) error {
	entry, err := p.aclStmt(line, f)
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
		if removeFirst(&acl.Entries, func(e ACLEntryLine) bool { return e == entry }) {
			return nil
		}
		return fmt.Errorf("config: apply: ACL %s has no entry %q", name, lc.Line)
	}
	return fmt.Errorf("config: apply: bad ACL op %v", lc.Op)
}

// applyRouter edits the router stanza hdr ("PROTO ID") names.
func (c *Config) applyRouter(p *parser, lc LineChange, hdr, line string, f []string) error {
	protoName, idText, _ := strings.Cut(hdr, " ")
	proto, ok := parseProtocol(protoName)
	id, err := strconv.Atoi(idText)
	if !ok || err != nil {
		return fmt.Errorf("config: apply: bad router section %q", lc.Section)
	}
	rs := c.Router(proto, id)
	if rs == nil {
		return fmt.Errorf("config: apply: no router %s %d", proto, id)
	}
	s, err := p.routerStmt(line, f)
	if err != nil {
		return err
	}
	switch lc.Op {
	case OpAdd:
		s.add(rs)
		return nil
	case OpRemove:
		if s.remove(rs) {
			return nil
		}
		return fmt.Errorf("config: apply: no line %q to remove", lc.Line)
	}
	return fmt.Errorf("config: apply: bad op %v for %q", lc.Op, lc.Line)
}
