package arc

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The rule-built ETGs below are the reference the product's graphs are
// held to. The product evaluates the slot rules once, into harc.State
// rows, and lays every graph over a row, weighted by the state's SlotCost
// (internal/harc). Here each graph is built straight from the rules:
// presence by PresentAll / PresentDst / PresentTC / PresentRouting, weight
// by Weight. reference_views_test.go demands the same slots, weights,
// paths, flows, cuts, verdicts and explanations from both.

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
