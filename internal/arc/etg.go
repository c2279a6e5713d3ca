package arc

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Level selects which control-plane constructs an ETG models.
type Level int

// Abstraction levels (paper §4.3).
const (
	// LevelAll models routing adjacencies and redistribution only (aETG).
	LevelAll Level = iota
	// LevelDst additionally models route filters and static routes (dETG).
	LevelDst
	// LevelTC additionally models ACLs (tcETG).
	LevelTC
)

// ETG is an extended topology graph: the per-level digraph derived from a
// network's slot table. Every ETG of a network is laid over the table's
// shared vertex space (SRC and DST are always vertices 0 and 1, present
// even when no edge reaches them), so graphs carry no name index and
// vertex ids mean the same thing in all of them.
type ETG struct {
	Level     Level
	TC        topology.TrafficClass // set for LevelTC
	DstSubnet *topology.Subnet      // set for LevelDst and LevelTC

	G   *graph.Digraph
	Src graph.V
	Dst graph.V

	// SlotOf maps each edge id to the slot it instantiates; EdgeOf is the
	// inverse, indexed by Slot.ID, with graph.None for absent slots.
	SlotOf []*Slot
	EdgeOf []graph.E

	// Waypoints, when non-nil, overrides link waypoint presence by link id.
	// Used when verifying repaired states that add or remove middleboxes.
	Waypoints bitset.Set

	tab *Table
}

// NewETG returns the ETG over t's vertex space whose edges are exactly
// the given slots (each a slot of t, in ascending ID order), slot i
// weighted weight(i).
func NewETG(t *Table, level Level, present []*Slot, weight func(*Slot) int64) *ETG {
	edges := make([]graph.Edge, len(present))
	edgeOf := make([]graph.E, len(t.Slots))
	for i := range edgeOf {
		edgeOf[i] = graph.E(graph.None)
	}
	for i, s := range present {
		edges[i] = graph.Edge{From: s.From, To: s.To, Weight: weight(s)}
		edgeOf[s.ID] = graph.E(i)
	}
	return &ETG{
		Level:  level,
		G:      graph.NewOver(t.Vertices, edges),
		Src:    VSrc,
		Dst:    VDst,
		SlotOf: present,
		EdgeOf: edgeOf,
		tab:    t,
	}
}

// build gathers the slots a presence rule admits and lays the ETG over
// them.
func build(t *Table, level Level, dst *topology.Subnet, present func(*Slot) bool) *ETG {
	var in []*Slot
	for _, s := range t.Slots {
		if present(s) {
			in = append(in, s)
		}
	}
	e := NewETG(t, level, in, func(s *Slot) int64 { return s.Weight(dst) })
	e.DstSubnet = dst
	return e
}

// BuildTCETG builds the traffic-class ETG for tc (Algorithm 1).
func BuildTCETG(t *Table, tc topology.TrafficClass) *ETG {
	e := build(t, LevelTC, tc.Dst, func(s *Slot) bool {
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
	e := build(t, LevelTC, tc.Dst, func(s *Slot) bool {
		return s.ApplicableTC(tc) && s.PresentRouting(tc)
	})
	e.TC = tc
	return e
}

// BuildDstETG builds the destination ETG for dst: route filters and static
// routes apply, ACLs do not, and all sources are represented (source slots
// are omitted).
func BuildDstETG(t *Table, dst *topology.Subnet) *ETG {
	e := build(t, LevelDst, dst, func(s *Slot) bool {
		return s.ApplicableDst(dst) && s.PresentDst(dst)
	})
	e.Src = graph.V(graph.None)
	return e
}

// BuildAllETG builds the aETG: adjacencies and redistribution only.
func BuildAllETG(t *Table) *ETG {
	e := build(t, LevelAll, nil, func(s *Slot) bool {
		return s.Kind != SlotSource && s.Kind != SlotDest && s.PresentAll()
	})
	e.Src, e.Dst = graph.V(graph.None), graph.V(graph.None)
	return e
}

// edgeOf returns the edge instantiating s, or graph.None. Slots of the
// ETG's own table resolve by id; any other slot (hand-built, or from
// another network's table) falls back to a key comparison.
func (e *ETG) edgeOf(s *Slot) graph.E {
	if s.tab == e.tab {
		return e.EdgeOf[s.ID]
	}
	key := s.Key()
	for id, own := range e.SlotOf {
		if own.Key() == key {
			return graph.E(id)
		}
	}
	return graph.E(graph.None)
}

// HasSlot reports whether the slot's edge is present in the ETG.
func (e *ETG) HasSlot(s *Slot) bool { return e.edgeOf(s) != graph.E(graph.None) }

// WaypointEdge reports whether edge id carries a waypoint, honoring the
// Waypoints override for inter-device edges. Ids that name no edge carry
// none.
func (e *ETG) WaypointEdge(id graph.E) bool {
	if id < 0 || int(id) >= len(e.SlotOf) {
		return false
	}
	s := e.SlotOf[id]
	if e.Waypoints != nil && s.Kind == SlotInterDevice {
		return e.Waypoints.Has(s.LinkID)
	}
	return s.Waypoint()
}

// WithoutLinks returns a copy of the ETG with every inter-device edge over
// a failed physical link (a set of link ids) removed, in ascending edge
// order. The copy shares the original's vertex/edge storage (only removal
// flags are duplicated), so it supports reachability queries but must not
// be extended.
func (e *ETG) WithoutLinks(failed bitset.Set) *ETG {
	c := *e
	c.G = e.G.CloneEdgesShared()
	for id, s := range e.SlotOf {
		if failed.Has(s.LinkID) {
			c.G.RemoveEdge(graph.E(id))
		}
	}
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
