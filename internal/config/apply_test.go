package config_test

// Apply-patch round trip: every LineChange a mutator records, replayed
// through Config.Apply onto a pristine parse of the same configuration,
// must reproduce the directly-mutated configuration byte for byte, and
// the result must re-parse and flip exactly the intended construct in
// the extracted network. This is the property the repair pipeline relies
// on when it ships patches as line edits instead of whole files. The
// table covers every Op kind (+, -, ~) and the order-sensitive Prepend
// flag.

import (
	"net/netip"
	"testing"

	"repro/internal/config"
	"repro/internal/topology"
)

var (
	pfxR   = netip.MustParsePrefix("10.10.0.0/16")
	pfxT   = netip.MustParsePrefix("10.20.0.0/16")
	pfxS   = netip.MustParsePrefix("10.30.0.0/16")
	pfxU   = netip.MustParsePrefix("10.40.0.0/16")
	pfxAny = netip.Prefix{}
	nhC    = netip.MustParseAddr("10.0.2.3")
)

type applyCase struct {
	name  string
	host  string
	setup func(*config.Config) // pre-mutation baseline edit, not replayed
	// mutate performs the construct edit and returns the recorded lines.
	mutate  func(*config.Config) ([]config.LineChange, error)
	wantOps []config.Op
	wantPre bool // at least one change carries Prepend
	// check asserts the semantic flip on the network extracted from the
	// mutated configuration (cfg is its re-parsed form).
	check func(t *testing.T, n *topology.Network, cfg *config.Config)
}

func applyCases() []applyCase {
	blocks := func(n *topology.Network, dev, intf string, src, dst netip.Prefix) bool {
		d := n.Device(dev)
		name := d.Interface(intf).InACL
		if name == "" {
			return false
		}
		return d.ACLs[name].Blocks(src, dst)
	}
	return []applyCase{
		{
			name: "acl-fresh-attach",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.AddACLDeny("Ethernet0/1", "in", pfxR, pfxT)
			},
			wantOps: []config.Op{config.OpAdd, config.OpAdd, config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if !blocks(n, "A", "Ethernet0/1", pfxR, pfxT) {
					t.Error("fresh ACL should block R->T on A Ethernet0/1 in")
				}
			},
		},
		{
			name: "acl-prepend-deny",
			host: "B",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.AddACLDeny("Ethernet0/1", "in", pfxR, pfxT)
			},
			wantOps: []config.Op{config.OpAdd},
			wantPre: true,
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if !blocks(n, "B", "Ethernet0/1", pfxR, pfxT) {
					t.Error("prepended deny should block R->T")
				}
				if !blocks(n, "B", "Ethernet0/1", pfxS, pfxU) {
					t.Error("existing deny any->U must keep blocking S->U")
				}
			},
		},
		{
			name: "acl-remove-entry",
			host: "B",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.RemoveACLDeny("Ethernet0/1", "in", pfxAny, pfxU)
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if blocks(n, "B", "Ethernet0/1", pfxS, pfxU) {
					t.Error("removing the deny entry should unblock S->U")
				}
			},
		},
		{
			name: "acl-prepend-permit",
			host: "B",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				// No exact deny for (R,U); the broader any->U still blocks,
				// so the mutator must prepend a permit instead.
				return c.RemoveACLDeny("Ethernet0/1", "in", pfxR, pfxU)
			},
			wantOps: []config.Op{config.OpAdd},
			wantPre: true,
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if blocks(n, "B", "Ethernet0/1", pfxR, pfxU) {
					t.Error("prepended permit should unblock R->U")
				}
				if !blocks(n, "B", "Ethernet0/1", pfxS, pfxU) {
					t.Error("S->U must stay blocked by the broader deny")
				}
			},
		},
		{
			name: "adjacency-enable",
			host: "C",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.EnableAdjacency(topology.OSPF, 10, "Ethernet0/1")
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				d := n.Device("C")
				if d.Process(topology.OSPF, 10).IsPassive(d.Interface("Ethernet0/1")) {
					t.Error("Ethernet0/1 should no longer be passive")
				}
			},
		},
		{
			name: "adjacency-disable",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.DisableAdjacency(topology.OSPF, 10, "Ethernet0/1")
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				d := n.Device("A")
				if !d.Process(topology.OSPF, 10).IsPassive(d.Interface("Ethernet0/1")) {
					t.Error("Ethernet0/1 should be passive")
				}
			},
		},
		{
			name: "static-add",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.AddStaticRoute(pfxT, nhC, 3)
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				for _, sr := range n.Device("A").Statics {
					if sr.Prefix == pfxT && sr.NextHop == nhC && sr.Distance == 3 {
						return
					}
				}
				t.Error("static route for T via C missing")
			},
		},
		{
			name:  "static-remove",
			host:  "A",
			setup: func(c *config.Config) { c.AddStaticRoute(pfxT, nhC, 3) },
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.RemoveStaticRoute(pfxT, nhC)
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if len(n.Device("A").Statics) != 0 {
					t.Error("static route should be gone")
				}
			},
		},
		{
			name:  "static-distance",
			host:  "A",
			setup: func(c *config.Config) { c.AddStaticRoute(pfxT, nhC, 3) },
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.SetStaticDistance(pfxT, nhC, 5)
			},
			wantOps: []config.Op{config.OpModify},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				srs := n.Device("A").Statics
				if len(srs) != 1 || srs[0].Distance != 5 {
					t.Errorf("static distance not modified: %+v", srs)
				}
			},
		},
		{
			name: "route-filter-add",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.AddRouteFilter(topology.OSPF, 10, pfxT)
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if !n.Device("A").Process(topology.OSPF, 10).BlocksDestination(pfxT) {
					t.Error("process should filter routes to T")
				}
			},
		},
		{
			name: "route-filter-remove",
			host: "A",
			setup: func(c *config.Config) {
				if _, err := c.AddRouteFilter(topology.OSPF, 10, pfxT); err != nil {
					panic(err)
				}
			},
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.RemoveRouteFilter(topology.OSPF, 10, pfxT)
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if n.Device("A").Process(topology.OSPF, 10).BlocksDestination(pfxT) {
					t.Error("route filter should be gone")
				}
			},
		},
		{
			name: "redistribute-add",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.AddRedistribute(topology.OSPF, 10, topology.Static, 0)
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, _ *topology.Network, cfg *config.Config) {
				for _, rd := range cfg.Router(topology.OSPF, 10).Redistribute {
					if rd.Source == "static" {
						return
					}
				}
				t.Error("redistribute static line missing")
			},
		},
		{
			name: "redistribute-remove",
			host: "A",
			setup: func(c *config.Config) {
				if _, err := c.AddRedistribute(topology.OSPF, 10, topology.Static, 0); err != nil {
					panic(err)
				}
			},
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.RemoveRedistribute(topology.OSPF, 10, topology.Static, 0)
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, _ *topology.Network, cfg *config.Config) {
				for _, rd := range cfg.Router(topology.OSPF, 10).Redistribute {
					if rd.Source == "static" {
						t.Error("redistribute static line should be gone")
					}
				}
			},
		},
		{
			name: "waypoint-add",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.SetWaypoint("Ethernet0/2", true)
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if !n.Link("A", "C").Waypoint {
					t.Error("A-C link should carry a waypoint")
				}
			},
		},
		{
			name: "waypoint-remove",
			host: "B",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.SetWaypoint("Ethernet0/2", false)
			},
			wantOps: []config.Op{config.OpRemove},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if n.Link("B", "C").Waypoint {
					t.Error("B-C link waypoint should be gone")
				}
			},
		},
		{
			name: "cost-add",
			host: "A",
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.SetInterfaceCost("Ethernet0/1", 7)
			},
			wantOps: []config.Op{config.OpAdd},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if got := n.Device("A").Interface("Ethernet0/1").Cost; got != 7 {
					t.Errorf("cost = %d, want 7", got)
				}
			},
		},
		{
			name: "cost-modify",
			host: "A",
			setup: func(c *config.Config) {
				if _, err := c.SetInterfaceCost("Ethernet0/1", 7); err != nil {
					panic(err)
				}
			},
			mutate: func(c *config.Config) ([]config.LineChange, error) {
				return c.SetInterfaceCost("Ethernet0/1", 9)
			},
			wantOps: []config.Op{config.OpModify},
			check: func(t *testing.T, n *topology.Network, _ *config.Config) {
				if got := n.Device("A").Interface("Ethernet0/1").Cost; got != 9 {
					t.Errorf("cost = %d, want 9", got)
				}
			},
		},
	}
}

func TestApplyReplaysMutators(t *testing.T) {
	for _, tt := range applyCases() {
		t.Run(tt.name, func(t *testing.T) {
			// Baseline: Figure 2a texts with the case's setup edit folded in.
			base := map[string]string{}
			for host, text := range config.Figure2aConfigs() {
				c, err := config.Parse(host+".cfg", text)
				if err != nil {
					t.Fatal(err)
				}
				if host == tt.host && tt.setup != nil {
					tt.setup(c)
				}
				base[host] = c.Print()
			}

			// Direct mutation.
			direct, err := config.Parse(tt.host+".cfg", base[tt.host])
			if err != nil {
				t.Fatal(err)
			}
			changes, err := tt.mutate(direct)
			if err != nil {
				t.Fatalf("mutator: %v", err)
			}
			if len(changes) != len(tt.wantOps) {
				t.Fatalf("recorded %d changes, want %d: %v", len(changes), len(tt.wantOps), changes)
			}
			pre := false
			for i, lc := range changes {
				if lc.Op != tt.wantOps[i] {
					t.Errorf("change %d op %v, want %v (%v)", i, lc.Op, tt.wantOps[i], lc)
				}
				if lc.Device != tt.host {
					t.Errorf("change %d device %q, want %q", i, lc.Device, tt.host)
				}
				pre = pre || lc.Prepend
			}
			if pre != tt.wantPre {
				t.Errorf("prepend = %v, want %v: %v", pre, tt.wantPre, changes)
			}

			// Replay the recorded changes onto a pristine parse.
			replayed, err := config.Parse(tt.host+".cfg", base[tt.host])
			if err != nil {
				t.Fatal(err)
			}
			for _, lc := range changes {
				if err := replayed.Apply(lc); err != nil {
					t.Fatalf("Apply(%v): %v", lc, err)
				}
			}
			directText := direct.Print()
			if got := replayed.Print(); got != directText {
				t.Fatalf("replay diverges from direct mutation:\n--- direct ---\n%s--- replayed ---\n%s", directText, got)
			}

			// The mutated text re-parses and extracts; the intended
			// construct is flipped in the resulting network.
			var list []*config.Config
			var mutated *config.Config
			for _, host := range []string{"A", "B", "C"} {
				text := base[host]
				if host == tt.host {
					text = directText
				}
				c, err := config.Parse(host+".cfg", text)
				if err != nil {
					t.Fatalf("mutated %s does not re-parse: %v", host, err)
				}
				if host == tt.host {
					mutated = c
				}
				list = append(list, c)
			}
			n, err := config.Extract(list)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			tt.check(t, n, mutated)
		})
	}
}

// TestApplyRefusesMismatchedRemoval pins Apply's refusals to remove an
// interface line that names a value the interface does not have: an
// access group other than the one attached, a cost other than the one
// set. Each returns its labeled error and leaves the configuration as it
// was, byte for byte.
func TestApplyRefusesMismatchedRemoval(t *testing.T) {
	for _, tt := range []struct {
		name, host string
		setup      *config.LineChange // applied before the refused change
		refused    config.LineChange
		want       string
	}{
		{
			name: "access-group",
			host: "B", // Ethernet0/1 has "ip access-group BLOCK-U in"
			refused: config.LineChange{Device: "B", Op: config.OpRemove, Section: "interface Ethernet0/1",
				Line: "ip access-group OTHER in"},
			want: `config: apply: interface Ethernet0/1 access-group is "BLOCK-U", not "OTHER"`,
		},
		{
			name: "cost",
			host: "A",
			setup: &config.LineChange{Device: "A", Op: config.OpAdd, Section: "interface Ethernet0/1",
				Line: "ip ospf cost 5"},
			refused: config.LineChange{Device: "A", Op: config.OpRemove, Section: "interface Ethernet0/1",
				Line: "ip ospf cost 7"},
			want: "config: apply: interface Ethernet0/1 cost is 5, not 7",
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c, err := config.Parse(tt.host+".cfg", config.Figure2aConfigs()[tt.host])
			if err != nil {
				t.Fatal(err)
			}
			if tt.setup != nil {
				if err := c.Apply(*tt.setup); err != nil {
					t.Fatalf("Apply(%v): %v", *tt.setup, err)
				}
			}
			before := c.Print()
			err = c.Apply(tt.refused)
			if err == nil || err.Error() != tt.want {
				t.Fatalf("Apply(%v) = %v, want %q", tt.refused, err, tt.want)
			}
			if after := c.Print(); after != before {
				t.Fatalf("a refused removal changed the configuration:\n--- before ---\n%s--- after ---\n%s", before, after)
			}
		})
	}
}
