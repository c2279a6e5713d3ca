package arc

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The rule-built ETGs below are the reference the product's graphs are
// held to. The product reads the configuration's constructs into
// harc.State rows once, derives every dETG and tcETG row from them
// (harc.State.DeriveDst and DeriveTC), and lays every graph over a row,
// weighted by the state's SlotCost (internal/harc). Here each graph is
// built straight from the configuration: presence by PresentAll /
// PresentDst / PresentTC / PresentRouting, weight by Weight.
// reference_views_test.go demands the same slots, weights, paths, flows,
// cuts, verdicts and explanations from both, and state_reference_test.go
// the same rows.

// procStaticFor reports whether a static route for dst on the process's
// device exits through a link that the process's protocol peers over
// (so the corresponding inter-device slot exists and carries the edge).
// Such a FIB-level static lets traffic entering the device through any
// process leave via owner's outgoing vertex, backing the intra-device
// edges into it.
func procStaticFor(owner *topology.Process, dst *topology.Subnet) bool {
	for _, sr := range owner.Device.Statics {
		if sr.Prefix != dst.Prefix {
			continue
		}
		for _, intf := range owner.Device.Interfaces() {
			peer := intf.Peer()
			if peer == nil || !peer.Prefix.IsValid() || peer.Prefix.Addr() != sr.NextHop {
				continue
			}
			for _, q := range peer.Device.Processes {
				if q.Proto == owner.Proto {
					return true
				}
			}
		}
	}
	return false
}

// PresentDst reports whether the slot's edge exists in the dETG for dst,
// which additionally models route filters and static routes.
func (s *Slot) PresentDst(dst *topology.Subnet) bool {
	switch s.Kind {
	case SlotIntraSelf:
		// A route filter on the process removes its ability to forward
		// toward dst (Algorithm 1, lines 4-5) — unless a static route
		// through this process's links makes the FIB authoritative.
		return !s.FromProc.BlocksDestination(dst.Prefix) || procStaticFor(s.FromProc, dst)
	case SlotIntraRedist:
		if procStaticFor(s.FromProc, dst) {
			return true
		}
		if !s.PresentAll() {
			return false
		}
		// The entry process must accept routes to dst and the owner must
		// have them (Algorithm 1, lines 6-8).
		return !s.ToProc.BlocksDestination(dst.Prefix) && !s.FromProc.BlocksDestination(dst.Prefix)
	case SlotInterDevice:
		if s.StaticBacked(dst) != nil {
			return true
		}
		// The receiving process must advertise routes to dst back to the
		// sender (Algorithm 1, lines 10-13).
		return s.adjacencyUp() && !s.ToProc.BlocksDestination(dst.Prefix)
	case SlotSource:
		return true
	case SlotDest:
		return s.Subnet == dst && !s.FromProc.BlocksDestination(dst.Prefix)
	}
	return false
}

// PresentTC reports whether the slot's edge exists in the tcETG for tc,
// which additionally models ACLs (Algorithm 1, lines 14-15).
func (s *Slot) PresentTC(tc topology.TrafficClass) bool {
	if !s.PresentDst(tc.Dst) {
		return false
	}
	if s.Kind == SlotSource {
		if s.Subnet != tc.Src {
			return false
		}
		// Traffic cannot enter the network through a process that has no
		// route to the destination (route filter on the gateway).
		if s.ToProc.BlocksDestination(tc.Dst.Prefix) {
			return false
		}
	}
	return !s.outACL.Blocks(tc.Src.Prefix, tc.Dst.Prefix) && !s.inACL.Blocks(tc.Src.Prefix, tc.Dst.Prefix)
}

// Weight returns the slot's edge weight for destination dst: the egress
// interface cost for adjacency-backed inter-device edges, the configured
// administrative distance for static-backed edges, and 0 for intra-device
// and attachment edges (the ETG weighting of §4.1).
func (s *Slot) Weight(dst *topology.Subnet) int64 {
	if s.Kind != SlotInterDevice {
		return 0
	}
	if s.adjacencyUp() {
		return int64(s.FromIntf.Cost)
	}
	if dst != nil {
		if sr := s.StaticBacked(dst); sr != nil {
			return int64(sr.Distance)
		}
	}
	return int64(s.FromIntf.Cost)
}

// PresentRouting reports whether the slot's edge exists in the graph
// route selection operates on for tc. Routing is ACL-blind — an ACL
// drops packets but never steers them elsewhere — so presence is
// destination-level for every slot except the source attachment, which
// exists only at the tc level: a blocked entry drops traffic outright,
// it cannot be routed around.
func (s *Slot) PresentRouting(tc topology.TrafficClass) bool {
	if s.Kind == SlotSource {
		return s.PresentTC(tc)
	}
	return s.PresentDst(tc.Dst)
}

// build evaluates a presence rule over the whole table and lays the ETG
// over the slots it admits.
func build(t *Table, dst *topology.Subnet, present func(*Slot) bool) *ETG {
	live := bitset.New(len(t.Slots))
	for i, s := range t.Slots {
		if present(s) {
			live.Put(i, true)
		}
	}
	return NewETG(t, live, t.Weights(func(s *Slot) int64 { return s.Weight(dst) }))
}

// BuildTCETG builds the traffic-class ETG for tc (Algorithm 1).
func BuildTCETG(t *Table, tc topology.TrafficClass) *ETG {
	return build(t, tc.Dst, func(s *Slot) bool {
		return s.ApplicableTC(tc) && s.PresentTC(tc)
	})
}

// BuildRoutingETG builds the graph route selection operates on for tc:
// the dETG for tc.Dst augmented with tc's SRC and DST attachment edges.
// It can strictly contain the tcETG; PC4 walks it, then checks the
// tcETG's use of the resulting path.
func BuildRoutingETG(t *Table, tc topology.TrafficClass) *ETG {
	return build(t, tc.Dst, func(s *Slot) bool {
		return s.ApplicableTC(tc) && s.PresentRouting(tc)
	})
}

// BuildDstETG builds the destination ETG for dst: route filters and
// static routes apply, ACLs do not, and all sources are represented
// (source slots are omitted).
func BuildDstETG(t *Table, dst *topology.Subnet) *ETG {
	e := build(t, dst, func(s *Slot) bool {
		return s.ApplicableDst(dst) && s.PresentDst(dst)
	})
	e.Src = graph.V(graph.None)
	return e
}

// BuildAllETG builds the aETG: adjacencies and redistribution only.
func BuildAllETG(t *Table) *ETG {
	e := build(t, nil, func(s *Slot) bool {
		return s.Kind != SlotSource && s.Kind != SlotDest && s.PresentAll()
	})
	e.Src, e.Dst = graph.V(graph.None), graph.V(graph.None)
	return e
}

// DenseETG is the ETG representation views replaced, kept as the slow
// reference (reference_views_test.go holds views to it): a presence rule
// is put to every slot of the table, and the ETG gets a digraph of its
// own, built by graph.NewOver over the admitted slots alone, edge i being
// the i-th admitted slot in ascending id order. That graph is the base of
// a private table listing only those slots (copies, renumbered by rank),
// so everything that takes an ETG — the verifiers, kflow, the policy
// checks — runs on the dense layout unchanged.
func DenseETG(t *Table, dst *topology.Subnet, present func(*Slot) bool, weight func(*Slot) int64) *ETG {
	dense := &Table{Procs: t.Procs, Links: t.Links, Vertices: t.Vertices}
	var edges []graph.Edge
	for _, s := range t.Slots {
		if !present(s) {
			continue
		}
		c := *s
		c.ID, c.tab = len(dense.Slots), dense
		dense.Slots = append(dense.Slots, &c)
		edges = append(edges, graph.Edge{From: s.From, To: s.To, Weight: weight(s)})
	}
	dense.base = graph.NewOver(dense.Vertices, edges)
	return &ETG{G: dense.base, Src: VSrc, Dst: VDst, tab: dense}
}
