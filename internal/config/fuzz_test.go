package config_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/topology"
)

// grownRouter is the configuration Example_grow cables to Figure 2a's
// router C: a new router whose uplink is not yet OSPF-active.
const grownRouter = `hostname D
!
interface Ethernet0/0
 description Link-to-C
 ip address 10.0.4.4 255.255.255.0
!
interface Ethernet0/1
 description Subnet-V
 ip address 10.5.0.1 255.255.255.0
!
router ospf 1
 redistribute connected
 passive-interface Ethernet0/0
 network 10.0.4.0 0.0.0.255 area 0
`

// FuzzParseConfig holds the configuration parser, the input boundary of
// every load, to "a labeled error, never a panic": a text either parses —
// and then its printed form parses back to the same configuration, and
// extracting the one device it describes answers with a network or an
// error — or it is refused with a ParseError naming the file and a line
// of it; and it meets the legs of textLegs. Seeds are the configurations
// the examples load (Figure 2a's and the grown router), a static route,
// the printer/parser round-trip corpus (generated fat-trees, intact and
// broken) and testdata/fuzz/FuzzParseConfig.
func FuzzParseConfig(f *testing.F) {
	for _, text := range config.Figure2aConfigs() {
		f.Add(text)
	}
	f.Add(grownRouter)
	f.Add("hostname S\n!\nip route 10.20.0.0 255.255.0.0 10.0.2.3 5\n")
	for seed := int64(1); seed <= 2; seed++ {
		inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 1, PC2: 1, PC3: 1, PC4: 1, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		if err := generate.BreakFatTree(inst, seed+100, 2); err != nil {
			f.Fatal(err)
		}
		for _, name := range []string{"core0", "agg0-0", "edge0-0"} {
			f.Add(inst.Configs[name].Print())
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		const file = "fuzz.cfg"
		textLegs(t, file, text)
		c, err := config.Parse(file, text)
		if err != nil {
			var pe *config.ParseError
			if !errors.As(err, &pe) || pe.File != file || pe.Line < 1 || pe.Line > strings.Count(text, "\n")+1 {
				t.Fatalf("error %q (%T) does not name the file and one of its lines", err, err)
			}
			return
		}
		printed := c.Print()
		again, err := config.Parse(file, printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("printed form parses to another configuration:\n%s", printed)
		}
		config.Extract([]*config.Config{c})
	})
}

// textLegs are FuzzParseConfig's legs against the references and the
// clone: Parse agrees with the Split/Fields parser (the same
// configuration, or an error with the same message — the line is pinned
// by TestParseErrorNamesItsLine), Print with the fmt printer, and Clone
// with re-parsing the printed form; the clone shares no stanza or list
// with the original, and every mutator run on the clone leaves the
// original's printed form as it was.
func textLegs(t *testing.T, file, text string) {
	c, err := config.Parse(file, text)
	ref, refErr := config.ReferenceParse(file, text)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Parse error %v, reference error %v", err, refErr)
	}
	if err != nil {
		if got, want := err.(*config.ParseError).Msg, refErr.(*config.ParseError).Msg; got != want {
			t.Fatalf("Parse error %q, reference error %q", got, want)
		}
		return
	}
	if !reflect.DeepEqual(c, ref) {
		t.Fatalf("Parse differs from the reference")
	}
	printed := c.Print()
	if want := config.ReferencePrint(c); printed != want {
		t.Fatalf("Print differs from the reference:\n--- reference ---\n%s--- Print ---\n%s", want, printed)
	}
	clone := c.Clone()
	if again, _ := config.Parse(file, printed); !reflect.DeepEqual(clone, again) {
		t.Fatalf("Clone differs from re-parsing the printed form:\n%s", printed)
	}
	if sharesStorage(reflect.ValueOf(c), reflect.ValueOf(clone)) {
		t.Fatalf("Clone shares a stanza or a list with its source:\n%s", printed)
	}
	mutateEvery(clone)
	if got := c.Print(); got != printed {
		t.Fatalf("editing the clone changed the original:\n--- before ---\n%s--- after ---\n%s", printed, got)
	}
}

// sharesStorage reports whether x and y, two values of one configuration
// type, share a stanza or a list's backing array. Strings and netip
// values are immutable and not looked into.
func sharesStorage(x, y reflect.Value) bool {
	switch x.Kind() {
	case reflect.Pointer:
		return !x.IsNil() && !y.IsNil() && (x.Pointer() == y.Pointer() || sharesStorage(x.Elem(), y.Elem()))
	case reflect.Slice:
		if x.Len() > 0 && y.Len() > 0 && x.Pointer() == y.Pointer() {
			return true
		}
		for i := 0; i < min(x.Len(), y.Len()); i++ {
			if sharesStorage(x.Index(i), y.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		if x.Type().PkgPath() != reflect.TypeOf(config.Config{}).PkgPath() {
			return false
		}
		for i := 0; i < x.NumField(); i++ {
			if sharesStorage(x.Field(i), y.Field(i)) {
				return true
			}
		}
	}
	return false
}

// mutateEvery runs every mutator in mutate.go on c, with arguments drawn
// from c itself, and ignores what they return.
func mutateEvery(c *config.Config) {
	for _, intf := range c.Interfaces {
		c.AddACLDeny(intf.Name, "in", pfxR, pfxT)
		c.RemoveACLDeny(intf.Name, "in", pfxR, pfxT)
		c.RemoveACLDeny(intf.Name, "out", pfxAny, pfxAny)
		c.SetWaypoint(intf.Name, !intf.Waypoint)
		c.SetInterfaceCost(intf.Name, intf.Cost+1)
	}
	for _, rs := range c.Routers {
		for _, intf := range c.Interfaces {
			c.EnableAdjacency(rs.Proto, rs.ID, intf.Name)
			c.DisableAdjacency(rs.Proto, rs.ID, intf.Name)
		}
		for _, dl := range slices.Clone(rs.DistributeListIn) {
			c.RemoveRouteFilter(rs.Proto, rs.ID, dl)
		}
		c.AddRouteFilter(rs.Proto, rs.ID, pfxS)
		c.AddRedistribute(rs.Proto, rs.ID, topology.RIP, 9)
		c.RemoveRedistribute(rs.Proto, rs.ID, topology.RIP, 9)
		c.AddBGPNeighbor(rs.ID, nhC, 65009)
		for _, nb := range slices.Clone(rs.Neighbors) {
			c.RemoveBGPNeighbor(rs.ID, nb.Addr)
		}
	}
	c.AddStaticRoute(pfxU, nhC, 0)
	for _, sr := range slices.Clone(c.Statics) {
		c.SetStaticDistance(sr.Prefix, sr.NextHop, sr.Distance+1)
		c.RemoveStaticRoute(sr.Prefix, sr.NextHop)
	}
}
