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
func DenseETG(t *Table, level Level, dst *topology.Subnet, present func(*Slot) bool, weight func(*Slot) int64) *ETG {
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
	return &ETG{Level: level, DstSubnet: dst, G: dense.base, Src: VSrc, Dst: VDst, tab: dense}
}
