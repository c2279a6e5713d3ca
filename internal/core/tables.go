package core

import (
	"repro/internal/arc"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// tables is the read-only, per-repair precomputed structure shared by
// every sub-problem encoder: the per-destination and per-traffic-class
// applicability lists with their local vertex numbering. Slot keys, cost
// keys, canonical adjacency directions and slot/process/link/vertex ids
// live on the HARC's slot table. Parallel per-destination
// solves read it concurrently, so nothing here may be mutated after
// newTables returns.
type tables struct {
	h     *harc.HARC
	slots []*arc.Slot
	// tc and dst are indexed by the HARC's traffic-class and destination
	// rows; rows outside the problems are nil.
	tc  []*tcTables
	dst [][]int // applicable slot ids, ascending
}

// tcTables precomputes one traffic class's slot applicability and ETG
// vertex space.
type tcTables struct {
	// slots are the applicable slot ids, ascending.
	slots []int
	// fromV/toV are local vertex indices aligned with slots (i.e. indexed
	// by position within slots, not by slot id). Local vertices number the
	// table's vertices in order of first appearance, after SRC = 0 and
	// DST = 1; nv counts them.
	fromV, toV []int
	nv         int
	// byTail/byHead group slot positions (indices into slots) by tail and
	// head vertex.
	byTail, byHead [][]int
	// links groups applicable inter-device slot positions by physical
	// link, in first-appearance order (PC3's disjointness constraints).
	links [][]int
}

// procDev is the device name soft constraints on process pi are
// attributed to.
func (tb *tables) procDev(pi int) string { return tb.h.Procs[pi].Device.Name }

// newTables builds the shared tables for the traffic classes and
// destinations appearing in the given problems.
func newTables(h *harc.HARC, problems []*problem) *tables {
	tb := &tables{
		h:     h,
		slots: h.Slots,
		tc:    make([]*tcTables, len(h.TCs)),
		dst:   make([][]int, len(h.Dsts)),
	}
	for _, pr := range problems {
		for _, tc := range pr.tcs {
			tb.addTC(tc)
		}
	}
	return tb
}

// addTC builds (once) the tcTables for tc and the applicability list of
// its destination.
func (tb *tables) addTC(tc topology.TrafficClass) {
	r := tb.h.TCRow(tc)
	if tb.tc[r] != nil {
		return
	}
	t := &tcTables{nv: 2}
	local := make([]int, len(tb.h.Vertices)) // 0 = not numbered yet (or SRC)
	local[arc.VDst] = 1
	vertex := func(v graph.V) int {
		if v > arc.VDst && local[v] == 0 {
			local[v] = t.nv
			t.nv++
		}
		return local[v]
	}
	linkIdx := make([]int, len(tb.h.Links)) // 1 + index into t.links; 0 = unseen
	for i, s := range tb.slots {
		if !s.ApplicableTC(tc) {
			continue
		}
		k := len(t.slots)
		t.slots = append(t.slots, i)
		t.fromV = append(t.fromV, vertex(s.From))
		t.toV = append(t.toV, vertex(s.To))
		if s.Kind == arc.SlotInterDevice {
			li := linkIdx[s.LinkID] - 1
			if li < 0 {
				li = len(t.links)
				linkIdx[s.LinkID] = li + 1
				t.links = append(t.links, nil)
			}
			t.links[li] = append(t.links[li], k)
		}
	}
	t.byTail = make([][]int, t.nv)
	t.byHead = make([][]int, t.nv)
	for k := range t.slots {
		t.byTail[t.fromV[k]] = append(t.byTail[t.fromV[k]], k)
		t.byHead[t.toV[k]] = append(t.byHead[t.toV[k]], k)
	}
	tb.tc[r] = t

	if d := tb.h.DstRow(tc.Dst); tb.dst[d] == nil {
		for i, s := range tb.slots {
			if s.ApplicableDst(tc.Dst) {
				tb.dst[d] = append(tb.dst[d], i)
			}
		}
	}
}

// tablesFor returns tables covering the given policies directly (used by
// callers outside the Repair orchestration, e.g. tests).
func tablesFor(h *harc.HARC, policies []policy.Policy) *tables {
	pr := &problem{tcs: uniqueTCs(policies), policies: policies}
	return newTables(h, []*problem{pr})
}
