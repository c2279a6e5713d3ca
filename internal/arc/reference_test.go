package arc

import (
	"repro/internal/graph"
	"repro/internal/topology"
)

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
	return &ETG{DstSubnet: dst, G: dense.base, Src: VSrc, Dst: VDst, tab: dense}
}

// BuildDstETG builds the destination ETG for dst as a view of t: route
// filters and static routes apply, ACLs do not, and all sources are
// represented (source slots are omitted). No product path walks a dETG —
// the hierarchy lives in harc.State rows — so it is a test helper.
func BuildDstETG(t *Table, dst *topology.Subnet) *ETG {
	e := build(t, dst, func(s *Slot) bool {
		return s.ApplicableDst(dst) && s.PresentDst(dst)
	})
	e.Src = graph.V(graph.None)
	return e
}

// BuildAllETG builds the aETG as a view of t: adjacencies and
// redistribution only. A test helper for the same reason as BuildDstETG.
func BuildAllETG(t *Table) *ETG {
	e := build(t, nil, func(s *Slot) bool {
		return s.Kind != SlotSource && s.Kind != SlotDest && s.PresentAll()
	})
	e.Src, e.Dst = graph.V(graph.None), graph.V(graph.None)
	return e
}
