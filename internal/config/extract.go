package config

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"repro/internal/topology"
)

// SubnetDescriptionPrefix marks host-facing interfaces: an interface whose
// description is "Subnet-<NAME>" attaches the subnet NAME (Figure 1 uses
// exactly this convention).
const SubnetDescriptionPrefix = "Subnet-"

// Extract converts a set of device configurations into the semantic
// network model. It derives physical links by matching interface prefixes
// (two device interfaces in the same network form a link), attaches
// subnets from Subnet-<NAME> interface descriptions, and resolves
// redistribution references.
func Extract(configs []*Config) (*topology.Network, error) {
	n := topology.NewNetwork()

	type linkEnd struct {
		intf   *topology.Interface
		stanza *InterfaceStanza
	}
	byNet := make(map[netip.Prefix][]linkEnd)

	for _, cfg := range configs {
		if n.Device(cfg.Hostname) != nil {
			return nil, fmt.Errorf("config: duplicate hostname %q", cfg.Hostname)
		}
		dev := n.AddDevice(cfg.Hostname)
		dev.Waypoint = cfg.Waypoint
		for _, a := range cfg.ACLs {
			acl := dev.AddACL(a.Name)
			for _, e := range a.Entries {
				acl.Entries = append(acl.Entries, topology.ACLEntry{Permit: e.Permit, Src: e.Src, Dst: e.Dst})
			}
		}
		for _, is := range cfg.Interfaces {
			if is.Shutdown {
				continue
			}
			intf := dev.AddInterface(is.Name)
			intf.Prefix = is.Address
			if is.Cost > 0 {
				intf.Cost = is.Cost
			}
			intf.InACL = is.InACL
			intf.OutACL = is.OutACL
			if intf.InACL != "" && dev.ACLs[intf.InACL] == nil {
				return nil, fmt.Errorf("config: %s/%s references missing ACL %q", dev.Name, intf.Name, intf.InACL)
			}
			if intf.OutACL != "" && dev.ACLs[intf.OutACL] == nil {
				return nil, fmt.Errorf("config: %s/%s references missing ACL %q", dev.Name, intf.Name, intf.OutACL)
			}
			if !is.Address.IsValid() {
				continue
			}
			network := is.Address.Masked()
			if name, ok := strings.CutPrefix(is.Description, SubnetDescriptionPrefix); ok {
				sub := n.SubnetByPrefix(network)
				if sub == nil {
					sub = n.AddSubnet(name, network)
				} else if sub.Name != name {
					return nil, fmt.Errorf("config: subnet prefix %s named both %q and %q", network, sub.Name, name)
				}
				intf.Subnet = sub
				continue
			}
			byNet[network] = append(byNet[network], linkEnd{intf: intf, stanza: is})
		}
		for _, s := range cfg.Statics {
			dist := s.Distance
			if dist == 0 {
				dist = 1
			}
			dev.AddStatic(s.Prefix, s.NextHop, dist)
		}
	}

	// Derive physical links from shared networks, deterministically: in
	// the order of the prefixes' text, each formatted once (distinct
	// prefixes format distinctly, so no two keys tie).
	type netKey struct {
		key string
		p   netip.Prefix
	}
	nets := make([]netKey, 0, len(byNet))
	for p := range byNet {
		nets = append(nets, netKey{p.String(), p})
	}
	slices.SortFunc(nets, func(a, b netKey) int { return strings.Compare(a.key, b.key) })
	for _, nk := range nets {
		p := nk.p
		ends := byNet[p]
		if len(ends) == 1 {
			continue // dangling interface; tolerated
		}
		if len(ends) != 2 {
			return nil, fmt.Errorf("config: network %s has %d interfaces; point-to-point links need exactly 2", p, len(ends))
		}
		if ends[0].intf.Device == ends[1].intf.Device {
			return nil, fmt.Errorf("config: network %s connects device %s to itself", p, ends[0].intf.Device.Name)
		}
		l := n.AddLink(ends[0].intf, ends[1].intf)
		l.Waypoint = ends[0].stanza.Waypoint || ends[1].stanza.Waypoint
	}

	// Routing processes. First pass creates them; second pass resolves
	// redistribution references.
	for _, cfg := range configs {
		dev := n.Device(cfg.Hostname)
		for _, rs := range cfg.Routers {
			proc := dev.AddProcess(rs.Proto, rs.ID)
			proc.Passive = make(map[string]bool)
			for _, name := range rs.Passive {
				proc.Passive[name] = true
			}
			proc.RouteFilters = append(proc.RouteFilters, rs.DistributeListIn...)
			for _, intf := range dev.Interfaces() {
				if !intf.Prefix.IsValid() {
					continue
				}
				if processSelects(rs, intf) {
					proc.Interfaces = append(proc.Interfaces, intf)
				}
			}
		}
	}
	for _, cfg := range configs {
		dev := n.Device(cfg.Hostname)
		for _, rs := range cfg.Routers {
			proc := dev.Process(rs.Proto, rs.ID)
			for _, rd := range rs.Redistribute {
				switch rd.Source {
				case "connected":
					proc.RedistributeConnected = true
				case "static":
					// Static routes are modeled directly in dETGs; the
					// redistribute statement only matters for propagation,
					// which ARC's abstraction folds into the static edges.
				default:
					srcProto, _ := parseProtocol(rd.Source)
					src := dev.Process(srcProto, rd.ID)
					if src == nil {
						return nil, fmt.Errorf("config: %s redistributes missing process %s %d", dev.Name, rd.Source, rd.ID)
					}
					proc.RedistributesFrom = append(proc.RedistributesFrom, src)
				}
			}
		}
	}

	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// processSelects reports whether the router stanza's network/neighbor
// statements select the given interface.
func processSelects(rs *RouterStanza, intf *topology.Interface) bool {
	for _, nl := range rs.Networks {
		if wildcardMatch(nl.Addr, nl.Wildcard, intf.Prefix.Addr()) {
			return true
		}
	}
	for _, nb := range rs.Neighbors {
		// A BGP neighbor statement selects the interface whose network
		// contains the neighbor address.
		if intf.Prefix.Masked().Contains(nb.Addr) {
			return true
		}
	}
	return false
}

// wildcardMatch reports whether addr matches base under the wildcard mask
// (wildcard bits set to 1 are ignored).
func wildcardMatch(base, wildcard, addr netip.Addr) bool {
	b, w, a := base.As4(), wildcard.As4(), addr.As4()
	for i := 0; i < 4; i++ {
		if (b[i] &^ w[i]) != (a[i] &^ w[i]) {
			return false
		}
	}
	return true
}
