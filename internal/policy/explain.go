package policy

import (
	"fmt"
	"strings"

	"repro/internal/arc"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/topology"
)

// Explain returns a human-readable counterexample for a violated policy:
// the offending path (PC1/PC2/PC4), the smallest failure scenario found
// that disconnects the class (PC3), or a shared edge (Isolated). It
// returns ok=false when the policy actually holds.
func Explain(h *harc.HARC, p Policy) (witness string, ok bool) {
	etg := tcETGOf(h, p.TC)
	switch p.Kind {
	case AlwaysBlocked:
		path := etg.G.PathAvoiding(etg.Src, etg.Dst, nil)
		if path == nil {
			return "", false
		}
		return fmt.Sprintf("traffic can flow via %s", devicePath(etg, path)), true

	case AlwaysWaypoint:
		path := etg.G.PathAvoiding(etg.Src, etg.Dst, func(e graph.E) bool {
			return etg.WaypointEdge(e)
		})
		if path == nil {
			return "", false
		}
		return fmt.Sprintf("waypoint-free path exists via %s", devicePath(etg, path)), true

	case KReachable:
		links, found := findKFailure(etg, h.Network, p.K)
		if !found {
			return "", false
		}
		if len(links) == 0 {
			return "destination is unreachable even with no failures", true
		}
		names := make([]string, len(links))
		for i, l := range links {
			names[i] = l.Name()
		}
		return fmt.Sprintf("failing link(s) %s disconnects the class", strings.Join(names, ", ")), true

	case PrimaryPath:
		// Route selection ignores ACLs, so the witness comes from the
		// routing graph, not the tcETG.
		routing := arc.BuildRoutingETG(h.Table, p.TC)
		path, unique := routing.G.ShortestPathUnique(routing.Src, routing.Dst)
		if path == nil {
			return "destination is unreachable", true
		}
		got := routing.DevicePath(path)
		want := strings.Join(p.Path, " -> ")
		if !unique {
			return fmt.Sprintf("multiple equal-cost shortest paths exist (one is %s); forwarding is ambiguous", strings.Join(got, " -> ")), true
		}
		if strings.Join(got, " -> ") != want {
			return fmt.Sprintf("traffic uses %s instead of %s", strings.Join(got, " -> "), want), true
		}
		if !arc.VerifyPrimaryPath(etg, routing, p.Path) {
			return "an ACL drops traffic on the primary path itself", true
		}
		return "", false

	case Isolated:
		if s := sharedSlot(etg, tcETGOf(h, p.TC2)); s != nil {
			return fmt.Sprintf("classes share edge %s", s.Key()), true
		}
		return "", false
	}
	return "", false
}

// findKFailure returns a minimum-cardinality set of fewer than k failed
// links that disconnects SRC from DST (the most informative witness);
// found=false means the policy holds. The witness comes from the min-cut
// side of the same link-disjoint max-flow that decides PC3, so explaining
// a violation costs the same as verifying it.
func findKFailure(e *arc.ETG, n *topology.Network, k int) (links []*topology.Link, found bool) {
	return arc.MinLinkCut(e, k)
}

// devicePath renders an ETG vertex path as "SRC -> A -> B -> DST".
func devicePath(e *arc.ETG, path []graph.V) string {
	devs := e.DevicePath(path)
	return "SRC -> " + strings.Join(devs, " -> ") + " -> DST"
}

// ExplainAll renders one line per violated policy.
func ExplainAll(h *harc.HARC, policies []Policy) []string {
	var out []string
	for _, p := range policies {
		if w, violated := Explain(h, p); violated {
			out = append(out, fmt.Sprintf("%s: %s", p, w))
		}
	}
	return out
}
