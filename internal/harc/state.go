package harc

import (
	"maps"
	"runtime"
	"sync/atomic"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/topology"
)

// State is an explicit assignment of edge presence per HARC level plus
// shared edge costs and static-route distances: the search space of the
// repair engine, and everything a policy verdict reads. Presence is
// dense: one bitset row per level, destination or traffic class, indexed
// by the ids of the Layout the state was derived from. A slot that is
// not applicable to a row (another subnet's attachment slot) is simply
// an always-zero bit.
//
// The rows are exported for reading only. All writes go through the Set*
// and Copy* methods, which implement row-level copy-on-write: Clone
// shares every row with its receiver, and a row is copied the first time
// either side writes it.
type State struct {
	lay *Layout

	// All, Dst[dstRow] and TC[tcRow] hold aETG, dETG and tcETG presence by
	// slot id.
	All bitset.Set
	Dst []bitset.Set
	TC  []bitset.Set
	// Waypoint records per-link middlebox presence by link id; repairs may
	// add waypoints (paper §2.2, footnote 2).
	Waypoint bitset.Set
	// RouteFilter[dstRow] records per-(destination, process) filtering by
	// process id; Static[dstRow] records per-(destination, inter slot)
	// static routes by slot id. These are the constructs the presence rows
	// are derived from; the translator reads them directly.
	RouteFilter []bitset.Set
	Static      []bitset.Set
	// Cost is keyed by arc.Slot.CostKey.
	Cost map[string]int64

	// dist holds, by (destination row, inter slot), the administrative
	// distance of every configured static route whose distance is not its
	// interface's cost (StaticDistance). It is read only where the Static
	// bit is set, and never written once made: a change replaces it, so
	// clones share it.
	dist map[rowSlot]int64

	// A row is owned — writable in place — iff its stamp equals epoch.
	// Clone gives the copy a fresh epoch and moves the receiver to another
	// fresh one, so afterwards neither side owns a row the other can see.
	// stamp is laid out [All, Waypoint, Dst..., TC..., RouteFilter...,
	// Static...].
	epoch atomic.Uint64
	stamp []uint64
}

var epochs atomic.Uint64

// rowSlot keys a static route's distance: destination row, slot id.
type rowSlot struct{ r, id int32 }

// newState returns an all-absent state over the layout, owning its rows.
func newState(l *Layout) *State {
	nd, nt := len(l.Dsts), len(l.TCs)
	st := &State{
		lay:         l,
		All:         bitset.New(len(l.Slots)),
		Dst:         make([]bitset.Set, nd),
		TC:          make([]bitset.Set, nt),
		Waypoint:    bitset.New(len(l.Links)),
		RouteFilter: make([]bitset.Set, nd),
		Static:      make([]bitset.Set, nd),
		Cost:        make(map[string]int64),
		stamp:       make([]uint64, 2+3*nd+nt),
	}
	ep := epochs.Add(1)
	st.epoch.Store(ep)
	for i := range st.stamp {
		st.stamp[i] = ep
	}
	// One backing array per id space keeps a fresh state at a handful of
	// allocations however many rows it has.
	slotRows := carve(len(l.Slots), 2*nd+nt)
	for r := 0; r < nd; r++ {
		st.Dst[r], st.Static[r] = slotRows(), slotRows()
	}
	for r := 0; r < nt; r++ {
		st.TC[r] = slotRows()
	}
	procRows := carve(len(l.Procs), nd)
	for r := 0; r < nd; r++ {
		st.RouteFilter[r] = procRows()
	}
	return st
}

// carve returns a generator of n all-zero rows of the given bit width,
// cut from one allocation.
func carve(bits, n int) func() bitset.Set {
	words := len(bitset.New(bits))
	backing := make(bitset.Set, words*n)
	return func() bitset.Set {
		row := backing[:words:words]
		backing = backing[words:]
		return row
	}
}

// Clone returns a copy-on-write copy: it shares every row with st until
// one of the two writes it. Only the cost map is copied eagerly.
func (st *State) Clone() *State {
	c := &State{
		lay:         st.lay,
		All:         st.All,
		Dst:         append([]bitset.Set(nil), st.Dst...),
		TC:          append([]bitset.Set(nil), st.TC...),
		Waypoint:    st.Waypoint,
		RouteFilter: append([]bitset.Set(nil), st.RouteFilter...),
		Static:      append([]bitset.Set(nil), st.Static...),
		Cost:        make(map[string]int64, len(st.Cost)),
		dist:        st.dist,
		stamp:       make([]uint64, len(st.stamp)),
	}
	for k, v := range st.Cost {
		c.Cost[k] = v
	}
	// Stamps are never zero, so the copy owns nothing yet; moving st to a
	// fresh epoch disowns its rows too. Concurrent Clones of one state each
	// store a distinct fresh epoch, any of which will do.
	c.epoch.Store(epochs.Add(1))
	st.epoch.Store(epochs.Add(1))
	return c
}

// own returns *row, first replacing it with a private copy if the state
// does not own it.
func (st *State) own(row *bitset.Set, stamp int) bitset.Set {
	if ep := st.epoch.Load(); st.stamp[stamp] != ep {
		*row = row.Clone()
		st.stamp[stamp] = ep
	}
	return *row
}

func (st *State) dstStamp(r int) int    { return 2 + r }
func (st *State) tcStamp(r int) int     { return 2 + len(st.Dst) + r }
func (st *State) rfStamp(r int) int     { return 2 + len(st.Dst) + len(st.TC) + r }
func (st *State) staticStamp(r int) int { return 2 + 2*len(st.Dst) + len(st.TC) + r }

// SetAll sets aETG presence of slot id.
func (st *State) SetAll(id int, v bool) { st.own(&st.All, 0).Put(id, v) }

// SetWaypoint sets middlebox presence on link id.
func (st *State) SetWaypoint(link int, v bool) { st.own(&st.Waypoint, 1).Put(link, v) }

// SetDst sets dETG presence of slot id for destination row r.
func (st *State) SetDst(r, id int, v bool) { st.own(&st.Dst[r], st.dstStamp(r)).Put(id, v) }

// SetTC sets tcETG presence of slot id for traffic-class row r.
func (st *State) SetTC(r, id int, v bool) { st.own(&st.TC[r], st.tcStamp(r)).Put(id, v) }

// SetRouteFilter sets the route filter of process proc for destination
// row r.
func (st *State) SetRouteFilter(r, proc int, v bool) {
	st.own(&st.RouteFilter[r], st.rfStamp(r)).Put(proc, v)
}

// SetStatic sets the static route over inter-device slot id for
// destination row r.
func (st *State) SetStatic(r, id int, v bool) { st.own(&st.Static[r], st.staticStamp(r)).Put(id, v) }

// replace installs row, which the state owns from here on.
func (st *State) replace(dst *bitset.Set, stamp int, row bitset.Set) {
	*dst = row
	st.stamp[stamp] = st.epoch.Load()
}

// SetDstRow and SetTCRow replace a whole presence row. The state adopts
// the row: the caller must not use it afterwards.
func (st *State) SetDstRow(r int, row bitset.Set) { st.replace(&st.Dst[r], st.dstStamp(r), row) }

// SetTCRow: see SetDstRow.
func (st *State) SetTCRow(r int, row bitset.Set) { st.replace(&st.TC[r], st.tcStamp(r), row) }

// CopyDst makes st's rows for dst (presence, route filters, statics and
// their distances) equal to src's; CopyTC does the same for one traffic
// class's row and CopyAll for the aETG row. src must be a state of a
// same-shape layout (arc.Table.SameShape) that covers the row.
func (st *State) CopyDst(src *State, dst *topology.Subnet) {
	r, sr := st.lay.DstRow(dst), src.lay.DstRow(dst)
	st.SetDstRow(r, src.Dst[sr].Clone())
	st.replace(&st.RouteFilter[r], st.rfStamp(r), src.RouteFilter[sr].Clone())
	st.replace(&st.Static[r], st.staticStamp(r), src.Static[sr].Clone())
	if st.dist != nil || src.dist != nil {
		m := make(map[rowSlot]int64)
		for k, d := range st.dist {
			if int(k.r) != r {
				m[k] = d
			}
		}
		for k, d := range src.dist {
			if int(k.r) == sr {
				m[rowSlot{int32(r), k.id}] = d
			}
		}
		st.dist = m
	}
}

// CopyTC: see CopyDst.
func (st *State) CopyTC(src *State, tc topology.TrafficClass) {
	st.SetTCRow(st.lay.TCRow(tc), src.TC[src.lay.TCRow(tc)].Clone())
}

// CopyAll: see CopyDst.
func (st *State) CopyAll(src *State) { st.replace(&st.All, 0, src.All.Clone()) }

// AddWaypoints places every middlebox src has (same-shape layouts).
func (st *State) AddWaypoints(src *State) {
	if !src.Waypoint.Equal(st.Waypoint) {
		st.own(&st.Waypoint, 1).Or(src.Waypoint)
	}
}

// TCBits and DstBits return the presence row of a class or destination
// looked up by name — nil (all absent) when the state does not cover it:
// the entry points for callers that hold a policy rather than a row
// number.
func (st *State) TCBits(tc topology.TrafficClass) bitset.Set {
	if r := st.lay.TCRow(tc); r >= 0 {
		return st.TC[r]
	}
	return nil
}

// DstBits: see TCBits.
func (st *State) DstBits(dst *topology.Subnet) bitset.Set {
	if r := st.lay.DstRow(dst); r >= 0 {
		return st.Dst[r]
	}
	return nil
}

// Layout returns the layout the state's rows are numbered by.
func (st *State) Layout() *Layout { return st.lay }

// SameShape reports whether the two states' ids are interchangeable, so
// rows found by name in each can be compared or copied word by word.
func (st *State) SameShape(o *State) bool { return st.lay.Table.SameShape(o.lay.Table) }

// Equal reports whether the two states assign the same presence,
// constructs and costs. They must cover the same classes and
// destinations in the same row order over same-shape slot tables
// (states of one HARC, or of HARCs built alike from equal networks);
// anything else is unequal.
func (st *State) Equal(o *State) bool {
	if !st.SameShape(o) || len(st.TC) != len(o.TC) || len(st.Dst) != len(o.Dst) ||
		!maps.Equal(st.Cost, o.Cost) || !maps.Equal(st.dist, o.dist) {
		return false
	}
	rowsEqual := func(a, b []bitset.Set) bool {
		for r := range a {
			if !a[r].Equal(b[r]) {
				return false
			}
		}
		return true
	}
	return st.All.Equal(o.All) && st.Waypoint.Equal(o.Waypoint) &&
		rowsEqual(st.Dst, o.Dst) && rowsEqual(st.TC, o.TC) &&
		rowsEqual(st.RouteFilter, o.RouteFilter) && rowsEqual(st.Static, o.Static)
}

// ApproxBytes estimates the heap the state holds on its own: the rows it
// owns (shared rows are charged to their owner), row headers, costs and
// distances.
func (st *State) ApproxBytes() int64 {
	ep := st.epoch.Load()
	n := int64(len(st.stamp))*(8+24) + int64(len(st.Cost))*48 + int64(len(st.dist))*24
	words := func(row bitset.Set, stamp int) {
		if st.stamp[stamp] == ep {
			n += int64(len(row)) * 8
		}
	}
	words(st.All, 0)
	words(st.Waypoint, 1)
	for r := range st.Dst {
		words(st.Dst[r], st.dstStamp(r))
		words(st.RouteFilter[r], st.rfStamp(r))
		words(st.Static[r], st.staticStamp(r))
	}
	for r := range st.TC {
		words(st.TC[r], st.tcStamp(r))
	}
	return n
}

// procStatic reports whether the state has a static route for
// destination row r leaving through process proc (an inter slot with
// that tail).
func (st *State) procStatic(h *HARC, r, proc int) bool {
	found := false
	st.Static[r].Each(func(id int) {
		if h.Slots[id].FromProcID == proc {
			found = true
		}
	})
	return found
}

// SlotCost returns the weight of slot s in the graphs toward dst (the ETG
// weighting of §4.1): an inter-device slot weighs its interface's cost,
// or, while its adjacency is absent from the aETG row, the distance of
// the static route that backs it; every other slot weighs 0.
func (st *State) SlotCost(s *arc.Slot, dst *topology.Subnet) int64 {
	return st.slotCost(s, st.lay.DstRow(dst))
}

// slotCost is SlotCost for destination row r (-1: a destination the state
// does not cover, which has no static routes).
func (st *State) slotCost(s *arc.Slot, r int) int64 {
	switch {
	case s.Kind != arc.SlotInterDevice:
		return 0
	case r >= 0 && !st.All.Has(s.ID) && st.Static[r].Has(s.ID):
		return st.StaticDistance(r, s.ID)
	}
	return st.Cost[s.CostKey()]
}

// StaticDistance returns the administrative distance of the static route
// for destination row r over inter slot id: the route's own where it
// differs from its interface's configured cost, the interface's cost in
// the state otherwise — which is also what a route the state adds weighs.
func (st *State) StaticDistance(r, id int) int64 {
	if d, ok := st.dist[rowSlot{int32(r), int32(id)}]; ok {
		return d
	}
	return st.Cost[st.lay.Slots[id].CostKey()]
}

// WeighAlike reports whether every inter-device slot present in the
// destination rows of dsts weighs the same in st and o (SlotCost): what a
// verdict reads of costs and distances, however each state spells it. A
// repair's new static route weighs its interface's cost variable; the
// configuration that realizes it carries that value as the route's
// distance and keeps the interface's cost. The two states must be of
// same-shape layouts and hold equal rows for dsts.
func (st *State) WeighAlike(o *State, dsts []*topology.Subnet) bool {
	if len(st.dist) == 0 && len(o.dist) == 0 && maps.Equal(st.Cost, o.Cost) {
		return true
	}
	for _, dst := range dsts {
		r, or := st.lay.DstRow(dst), o.lay.DstRow(dst)
		if r < 0 || or < 0 {
			return false
		}
		alike := true
		st.Dst[r].Each(func(id int) {
			if alike {
				alike = st.slotCost(st.lay.Slots[id], r) == o.slotCost(o.lay.Slots[id], or)
			}
		})
		if !alike {
			return false
		}
	}
	return true
}

// StateOf returns the current state of the HARC: presence of every slot
// at every level, the cost of every directed interface and the distance
// of every static route, as the slot rules evaluated them when the HARC
// was built. The result is the caller's to write — a copy-on-write clone
// that shares each row with the HARC until the first write to it.
func StateOf(h *HARC) *State { return h.rows.Clone() }

// evalState evaluates the slot rules into a fresh state of h's layout.
// The hierarchy does most of the work: a destination's rows come from the
// rules, a class's row starts as its destination's. Rows are independent
// within a level and fill in parallel, each worker writing only its own.
func evalState(h *HARC) *State {
	st := newState(h.Layout)
	for id, s := range h.Slots {
		if s.Kind != arc.SlotSource && s.Kind != arc.SlotDest {
			st.All.Put(id, s.PresentAll())
		}
		if ck := s.CostKey(); ck != "" {
			st.Cost[ck] = int64(s.FromIntf.Cost)
		}
	}
	for i, l := range h.Links {
		st.Waypoint.Put(i, l.Waypoint)
	}
	ParallelFor(len(h.Dsts), runtime.GOMAXPROCS(0), func(r int) { fillDst(h, st, r) })
	for r, dst := range h.Dsts {
		st.Static[r].Each(func(id int) {
			s := h.Slots[id]
			if d := s.StaticBacked(dst).Distance; d != s.FromIntf.Cost {
				if st.dist == nil {
					st.dist = make(map[rowSlot]int64)
				}
				st.dist[rowSlot{int32(r), int32(id)}] = int64(d)
			}
		})
	}
	off, acls := dstACLs(h, st)
	ParallelFor(len(h.TCs), runtime.GOMAXPROCS(0), func(r int) {
		d := h.DstOf(r)
		fillTC(h, st, r, acls[off[d]:off[d+1]])
	})
	return st
}

// fillDst computes destination row r: presence, route filters, statics.
func fillDst(h *HARC, st *State, r int) {
	dst := h.Dsts[r]
	row, rf, static := st.Dst[r], st.RouteFilter[r], st.Static[r]
	for id, s := range h.Slots {
		if s.ApplicableDst(dst) {
			row.Put(id, s.PresentDst(dst))
		}
		switch s.Kind {
		case arc.SlotIntraSelf:
			rf.Put(s.FromProcID, s.FromProc.BlocksDestination(dst.Prefix))
		case arc.SlotInterDevice:
			static.Put(id, s.StaticBacked(dst) != nil)
		}
	}
}

// dstACLs returns, in CSR form, the ACLs each destination row of st
// needs: those guarding a slot present in the row (row r's are
// ids[off[r]:off[r+1]], ascending). An ACL that guards only slots a row
// lacks cannot clear a bit of a class toward it.
func dstACLs(h *HARC, st *State) (off, ids []int32) {
	off = make([]int32, len(h.Dsts)+1)
	for r, row := range st.Dst {
		for a := int32(1); a < int32(len(h.ACLs)); a++ {
			for _, id := range h.Guarded(a) {
				if row.Has(int(id)) {
					ids = append(ids, a)
					break
				}
			}
		}
		off[r+1] = int32(len(ids))
	}
	return off, ids
}

// fillTC computes traffic-class row r from its (already filled)
// destination row: a copy of it, plus the class's own source attachments
// put to the tc-level rule, minus every slot guarded by one of acls (its
// destination's, dstACLs) that blocks the class. Clearing a guarded slot
// the row lacks changes nothing, so no slot is tested. On dc-256 a class
// evaluates 5 ACLs, and 680 (class, slot) pairs of the 2,256 classes end
// up cleared.
func fillTC(h *HARC, st *State, r int, acls []int32) {
	tc, row := h.TCs[r], st.TC[r]
	copy(row, st.Dst[h.DstOf(r)])
	for _, id := range h.SrcSlots(r) {
		row.Put(int(id), h.Slots[id].PresentTC(tc))
	}
	for _, a := range acls {
		if h.ACLs[a].Blocks(tc.Src.Prefix, tc.Dst.Prefix) {
			for _, id := range h.Guarded(a) {
				row.Put(int(id), false)
			}
		}
	}
}
