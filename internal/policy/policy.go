// Package policy defines the reachability policy classes of Table 1
// (PC1-PC4), a textual specification format, verification against a HARC,
// and the policy-inference procedure the paper uses to derive
// specifications for networks whose operators' intent is unknown (§8).
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arc"
	"repro/internal/harc"
	"repro/internal/topology"
)

// Kind is the policy class.
type Kind int

// Policy classes (Table 1).
const (
	// AlwaysBlocked (PC1): traffic from SRC to DST is always blocked.
	AlwaysBlocked Kind = iota + 1
	// AlwaysWaypoint (PC2): traffic from SRC to DST always traverses a
	// waypoint.
	AlwaysWaypoint
	// KReachable (PC3): SRC can always reach DST when there are < K link
	// failures.
	KReachable
	// PrimaryPath (PC4): traffic from SRC to DST uses the given device
	// path in the absence of failures.
	PrimaryPath
	// Isolated requires two traffic classes to share no ETG edge (the
	// additional policy sketched at the end of §5.1:
	// edge_tc1 ⇒ ¬edge_tc2 for every edge, and vice versa).
	Isolated
)

func (k Kind) String() string {
	switch k {
	case AlwaysBlocked:
		return "PC1"
	case AlwaysWaypoint:
		return "PC2"
	case KReachable:
		return "PC3"
	case PrimaryPath:
		return "PC4"
	case Isolated:
		return "ISO"
	}
	return fmt.Sprintf("PC?(%d)", int(k))
}

// Policy is one operator requirement on one traffic class (or, for
// Isolated, a pair of traffic classes).
type Policy struct {
	Kind Kind
	TC   topology.TrafficClass
	K    int                   // KReachable: tolerate K-1 link failures
	Path []string              // PrimaryPath: device names in order
	TC2  topology.TrafficClass // Isolated: the second class
}

// String renders the policy in the specification syntax.
func (p Policy) String() string {
	switch p.Kind {
	case AlwaysBlocked:
		return fmt.Sprintf("always-blocked %s %s", p.TC.Src.Name, p.TC.Dst.Name)
	case AlwaysWaypoint:
		return fmt.Sprintf("always-waypoint %s %s", p.TC.Src.Name, p.TC.Dst.Name)
	case KReachable:
		return fmt.Sprintf("reachable %s %s %d", p.TC.Src.Name, p.TC.Dst.Name, p.K)
	case PrimaryPath:
		return fmt.Sprintf("primary-path %s %s %s", p.TC.Src.Name, p.TC.Dst.Name, strings.Join(p.Path, ","))
	case Isolated:
		return fmt.Sprintf("isolated %s %s %s %s", p.TC.Src.Name, p.TC.Dst.Name, p.TC2.Src.Name, p.TC2.Dst.Name)
	}
	return "?"
}

// Check verifies the policy against the HARC's own state, reading its
// rows in place (see StateChecker).
func Check(h *harc.HARC, p Policy) bool {
	c := StateChecker{h: h}
	return c.Check(p)
}

// Violations returns the subset of policies the HARC currently violates,
// in input order. Checks are independent graph queries over the
// (read-only) HARC, so they fan out over one worker per core.
func Violations(h *harc.HARC, policies []Policy) []Policy {
	c := StateChecker{h: h}
	bad := make([]bool, len(policies))
	harc.ParallelFor(len(policies), func(i int) { bad[i] = !c.Check(policies[i]) })
	var out []Policy
	for i, p := range policies {
		if bad[i] {
			out = append(out, p)
		}
	}
	return out
}

// Parse reads a specification: one policy per line, "#" comments, blank
// lines ignored. Subnet names must exist in the network.
func Parse(n *topology.Network, text string) ([]Policy, error) {
	var out []Policy
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		// class resolves a traffic class; the HARC has none from a subnet to
		// itself.
		class := func(src, dst string) (tc topology.TrafficClass, err error) {
			tc = topology.TrafficClass{Src: n.Subnet(src), Dst: n.Subnet(dst)}
			switch {
			case tc.Src == nil:
				err = fmt.Errorf("policy: line %d: unknown subnet %q", lineno+1, src)
			case tc.Dst == nil:
				err = fmt.Errorf("policy: line %d: unknown subnet %q", lineno+1, dst)
			case tc.Src == tc.Dst:
				err = fmt.Errorf("policy: line %d: source and destination are both %q", lineno+1, src)
			}
			return tc, err
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("policy: line %d: too few fields", lineno+1)
		}
		tc, err := class(fields[1], fields[2])
		if err != nil {
			return nil, err
		}
		p := Policy{TC: tc}
		switch fields[0] {
		case "always-blocked":
			p.Kind = AlwaysBlocked
		case "always-waypoint":
			p.Kind = AlwaysWaypoint
		case "reachable":
			p.Kind = KReachable
			if len(fields) != 4 {
				return nil, fmt.Errorf("policy: line %d: reachable wants SRC DST K", lineno+1)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &p.K); err != nil || p.K < 1 {
				return nil, fmt.Errorf("policy: line %d: bad K %q", lineno+1, fields[3])
			}
		case "primary-path":
			p.Kind = PrimaryPath
			if len(fields) != 4 {
				return nil, fmt.Errorf("policy: line %d: primary-path wants SRC DST DEV,DEV,...", lineno+1)
			}
			p.Path = strings.Split(fields[3], ",")
			for _, dev := range p.Path {
				if n.Device(dev) == nil {
					return nil, fmt.Errorf("policy: line %d: unknown device %q", lineno+1, dev)
				}
			}
		case "isolated":
			p.Kind = Isolated
			if len(fields) != 5 {
				return nil, fmt.Errorf("policy: line %d: isolated wants SRC1 DST1 SRC2 DST2", lineno+1)
			}
			if p.TC2, err = class(fields[3], fields[4]); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("policy: line %d: unknown policy kind %q", lineno+1, fields[0])
		}
		out = append(out, p)
	}
	return out, nil
}

// Format renders policies in the specification syntax, one per line.
func Format(policies []Policy) string {
	var b strings.Builder
	for _, p := range policies {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Infer derives the PC1/PC3 policies a network currently satisfies, the
// procedure the paper applies to the real data-center snapshots (§8): a
// traffic class that is always blocked yields PC1; one that remains
// reachable under any single failure yields PC3 with K=2; one reachable
// only without failures yields PC3 with K=1. A traffic class cannot have
// both (PC1 and PC3 are mutually exclusive). One policy is inferred per
// traffic class of the HARC, in its row order.
func Infer(h *harc.HARC) []Policy {
	var out []Policy
	for _, tc := range h.TCs {
		etg := h.TCETG(tc)
		if arc.VerifyAlwaysBlocked(etg) {
			out = append(out, Policy{Kind: AlwaysBlocked, TC: tc})
			continue
		}
		if arc.VerifyKReachable(etg, h.Network, 2) {
			out = append(out, Policy{Kind: KReachable, TC: tc, K: 2})
		} else {
			out = append(out, Policy{Kind: KReachable, TC: tc, K: 1})
		}
	}
	return out
}

// GroupByDst partitions policies by destination subnet, the granularity
// of the maxsmt-per-dst decomposition (§5.3). PC4 policies are all placed
// in the group of their destination, and GroupByDst reports whether more
// than one group would carry PC4 policies (which the decomposition must
// avoid by merging; see core.Repair).
func GroupByDst(policies []Policy) map[string][]Policy {
	groups := make(map[string][]Policy)
	for _, p := range policies {
		groups[p.TC.Dst.Name] = append(groups[p.TC.Dst.Name], p)
	}
	return groups
}

// SortedGroupNames returns group keys in deterministic order.
func SortedGroupNames(groups map[string][]Policy) []string {
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CountByKind tallies policies per class (used for Figure 6).
func CountByKind(policies []Policy) map[Kind]int {
	out := make(map[Kind]int)
	for _, p := range policies {
		out[p.Kind]++
	}
	return out
}
