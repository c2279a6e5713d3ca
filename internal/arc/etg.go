package arc

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// ETG is an extended topology graph: one level's view of the network's
// slot table. Every ETG of a network shares the table's base digraph —
// one vertex space (SRC and DST are always vertices 0 and 1), one edge per
// slot with edge id ≡ slot id, adjacency in ascending slot id — and adds
// only a mask of the slots present at its level and a weight vector, so
// vertex and edge ids mean the same thing in all of them.
type ETG struct {
	TC        topology.TrafficClass // set for a tcETG and for a routing graph
	DstSubnet *topology.Subnet      // set for every ETG toward one destination

	G   *graph.Digraph
	Src graph.V
	Dst graph.V

	// Waypoints, when non-nil, overrides link waypoint presence by link id.
	// Used when verifying repaired states that add or remove middleboxes.
	Waypoints bitset.Set

	tab *Table
}

// NewETG returns the view of t in which exactly the slots whose bit is
// set in live (by slot id) are present, slot i weighing w[i]. The view
// reads live and never writes it: the caller may share one row among any
// number of views, and must leave it alone while they are in use.
func NewETG(t *Table, live bitset.Set, w *graph.Weights) *ETG {
	return &ETG{G: t.base.View(live, w), Src: VSrc, Dst: VDst, tab: t}
}

// Weights returns the lazily filled weight vector that weighs slot i of t
// at weight(t.Slots[i]).
func (t *Table) Weights(weight func(*Slot) int64) *graph.Weights {
	return graph.LazyWeights(func() []int64 {
		w := make([]int64, len(t.Slots))
		for i, s := range t.Slots {
			w[i] = weight(s)
		}
		return w
	})
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
	e := NewETG(t, live, t.Weights(func(s *Slot) int64 { return s.Weight(dst) }))
	e.DstSubnet = dst
	return e
}

// BuildTCETG builds the traffic-class ETG for tc (Algorithm 1).
func BuildTCETG(t *Table, tc topology.TrafficClass) *ETG {
	e := build(t, tc.Dst, func(s *Slot) bool {
		return s.ApplicableTC(tc) && s.PresentTC(tc)
	})
	e.TC = tc
	return e
}

// BuildRoutingETG builds the graph route selection operates on for tc:
// the dETG for tc.Dst augmented with tc's SRC and DST attachment edges.
// ACLs are deliberately ignored — they drop packets but do not influence
// shortest-path computation — so this graph can strictly contain the
// tcETG. PC4 verification walks this graph, then checks tcETG usability
// of the resulting path.
func BuildRoutingETG(t *Table, tc topology.TrafficClass) *ETG {
	e := build(t, tc.Dst, func(s *Slot) bool {
		return s.ApplicableTC(tc) && s.PresentRouting(tc)
	})
	e.TC = tc
	return e
}

// Slot returns the slot edge id instantiates (edge id ≡ slot id).
func (e *ETG) Slot(id graph.E) *Slot { return e.tab.Slots[id] }

// EachSlot calls fn for every present slot, in ascending id order.
func (e *ETG) EachSlot(fn func(*Slot)) {
	e.G.Live().Each(func(id int) { fn(e.tab.Slots[id]) })
}

// HasSlot reports whether the slot's edge is present in the ETG. Slots of
// the ETG's own table resolve by id; any other slot (hand-built, or from
// another network's table) is looked up by key.
func (e *ETG) HasSlot(s *Slot) bool {
	id := s.ID
	if s.tab != e.tab {
		id = e.tab.SlotID(s.Key())
	}
	return id >= 0 && e.G.EdgeLive(graph.E(id))
}

// WaypointEdge reports whether edge id carries a waypoint, honoring the
// Waypoints override for inter-device edges. Ids that name no edge carry
// none.
func (e *ETG) WaypointEdge(id graph.E) bool {
	if id < 0 || int(id) >= len(e.tab.Slots) {
		return false
	}
	s := e.tab.Slots[id]
	if e.Waypoints != nil && s.Kind == SlotInterDevice {
		return e.Waypoints.Has(s.LinkID)
	}
	return s.Waypoint()
}

// WithoutLinks returns a copy of the ETG with every inter-device edge over
// a failed physical link (a set of link ids) removed. The copy is another
// view of the same table with a mask of its own; the original is
// untouched.
func (e *ETG) WithoutLinks(failed bitset.Set) *ETG {
	c := *e
	c.G = e.G.View(nil, nil)
	e.EachSlot(func(s *Slot) {
		if failed.Has(s.LinkID) {
			c.G.RemoveEdge(graph.E(s.ID))
		}
	})
	return &c
}

// DevicePath collapses an ETG vertex path into the sequence of device
// names it traverses (SRC/DST vertices are dropped).
func (e *ETG) DevicePath(path []graph.V) []string {
	var out []string
	for _, v := range path {
		if v == VSrc || v == VDst {
			continue
		}
		dev := e.tab.Procs[(int(v)-2)/2].Device.Name
		if len(out) == 0 || out[len(out)-1] != dev {
			out = append(out, dev)
		}
	}
	return out
}
