package harc

import (
	"sync/atomic"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/topology"
)

// State is an explicit assignment of edge presence per HARC level plus
// shared edge costs: the search space of the repair engine. Presence is
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

	// A row is owned — writable in place — iff its stamp equals epoch.
	// Clone gives the copy a fresh epoch and moves the receiver to another
	// fresh one, so afterwards neither side owns a row the other can see.
	// stamp is laid out [All, Waypoint, Dst..., TC..., RouteFilter...,
	// Static...].
	epoch atomic.Uint64
	stamp []uint64
}

var epochs atomic.Uint64

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

// CopyDst makes st's rows for dst (presence, route filters, statics)
// equal to src's; CopyTC does the same for one traffic class's row and
// CopyAll for the aETG row. src must be a state of a same-shape layout
// (arc.Table.SameShape) that covers the row.
func (st *State) CopyDst(src *State, dst *topology.Subnet) {
	r, sr := st.lay.DstRow(dst), src.lay.DstRow(dst)
	st.SetDstRow(r, src.Dst[sr].Clone())
	st.replace(&st.RouteFilter[r], st.rfStamp(r), src.RouteFilter[sr].Clone())
	st.replace(&st.Static[r], st.staticStamp(r), src.Static[sr].Clone())
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

// SameShape reports whether the two states' ids are interchangeable, so
// rows found by name in each can be compared or copied word by word.
func (st *State) SameShape(o *State) bool { return st.lay.Table.SameShape(o.lay.Table) }

// Equal reports whether the two states assign the same presence,
// constructs and costs. They must cover the same classes and
// destinations in the same row order over same-shape slot tables
// (states of one HARC, or of HARCs built alike from equal networks);
// anything else is unequal.
func (st *State) Equal(o *State) bool {
	if !st.SameShape(o) || len(st.TC) != len(o.TC) || len(st.Dst) != len(o.Dst) || len(st.Cost) != len(o.Cost) {
		return false
	}
	for k, v := range st.Cost {
		if ov, ok := o.Cost[k]; !ok || ov != v {
			return false
		}
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
// owns (shared rows are charged to their owner), row headers and costs.
func (st *State) ApproxBytes() int64 {
	ep := st.epoch.Load()
	n := int64(len(st.stamp))*(8+24) + int64(len(st.Cost))*48
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

// SlotCost returns the state's cost for slot s, falling back to the
// slot's structural weight for non-inter-device slots.
func (st *State) SlotCost(s *arc.Slot, dst *topology.Subnet) int64 {
	if ck := s.CostKey(); ck != "" {
		if c, ok := st.Cost[ck]; ok {
			return c
		}
	}
	return s.Weight(dst)
}

// StateOf extracts the current state of the HARC: presence of every slot
// at every level and the cost of every directed interface. The
// per-destination and per-traffic-class rows are independent and fill in
// parallel, each worker writing only its own rows.
func StateOf(h *HARC) *State {
	st := newState(h.Layout)
	all := allIDs(len(h.Slots))
	fillShared(h, st, all, nil)
	ParallelFor(len(h.Dsts)+len(h.TCs), func(i int) { fillRow(h, st, i, all) })
	return st
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// fillShared computes the aETG bits and interface costs of the given
// slots, and the waypoint bits of the links with an end device in changed
// (every link when changed is nil).
func fillShared(h *HARC, st *State, ids []int, changed map[string]bool) {
	for _, id := range ids {
		s := h.Slots[id]
		if s.Kind != arc.SlotSource && s.Kind != arc.SlotDest {
			st.All.Put(id, s.PresentAll())
		}
		if ck := s.CostKey(); ck != "" {
			st.Cost[ck] = int64(s.FromIntf.Cost)
		}
	}
	for i, l := range h.Links {
		if changed == nil || changed[l.A.Device.Name] || changed[l.B.Device.Name] {
			st.Waypoint.Put(i, l.Waypoint)
		}
	}
}

// fillRow is the one row-filling routine behind StateOf and StateOfDelta:
// it computes, from the slot rules, the bits of the given slot ids in row
// i of the HARC — a destination's presence, route-filter and static rows
// for i < len(h.Dsts), a traffic class's presence row after that. The
// state must own the row; other bits are left as they are.
func fillRow(h *HARC, st *State, i int, ids []int) {
	if i >= len(h.Dsts) {
		r := i - len(h.Dsts)
		tc, row := h.TCs[r], st.TC[r]
		for _, id := range ids {
			if s := h.Slots[id]; s.ApplicableTC(tc) {
				row.Put(id, s.PresentTC(tc))
			}
		}
		return
	}
	dst := h.Dsts[i]
	row, rf, static := st.Dst[i], st.RouteFilter[i], st.Static[i]
	for _, id := range ids {
		s := h.Slots[id]
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

// slotTouches reports whether a slot's presence can depend on the
// configuration of any device in changed: its end processes' devices
// and (for attachment slots) the attachment interface's device.
func slotTouches(s *arc.Slot, changed map[string]bool) bool {
	if s.FromProc != nil && changed[s.FromProc.Device.Name] {
		return true
	}
	if s.ToProc != nil && changed[s.ToProc.Device.Name] {
		return true
	}
	if s.Intf != nil && changed[s.Intf.Device.Name] {
		return true
	}
	return false
}

// StateOfDelta computes StateOf(h) assuming base is the state of a HARC
// whose network differs from h's only in the configurations of the
// devices named in changed: every row starts as a copy of base's and
// only the slots touching a changed device — listed once, up front — are
// recomputed from the slot rules. It returns nil — directing the caller
// to a full StateOf — whenever the assumption is not checkable: the two
// layouts are not the same shape, or base lacks a destination, class or
// cost the new network has (the change was structural, not just
// behavioral).
//
// Soundness rests on slot presence being a function of its end devices'
// configurations and the subnet prefixes: every rule the slot evaluates
// (route filters, ACLs, static routes, redistribution) lives in the
// config of a device slotTouches covers. Prefix changes break that
// locality — an ACL on an unchanged device matches against remote
// prefixes — so callers must not use the delta path when any subnet's
// prefix differs between the two networks (session.Delta enforces
// this).
func StateOfDelta(h *HARC, base *State, changed map[string]bool) *State {
	if base == nil || len(changed) == 0 || !h.Table.SameShape(base.lay.Table) {
		return nil
	}
	bl := base.lay
	for _, dst := range h.Dsts {
		if bl.DstRow(dst) < 0 {
			return nil
		}
	}
	for _, tc := range h.TCs {
		if bl.TCRow(tc) < 0 {
			return nil
		}
	}
	st := newState(h.Layout)
	var touched []int
	for id, s := range h.Slots {
		if slotTouches(s, changed) {
			touched = append(touched, id)
		} else if ck := s.CostKey(); ck != "" {
			v, ok := base.Cost[ck]
			if !ok {
				return nil
			}
			st.Cost[ck] = v
		}
	}
	copy(st.All, base.All)
	copy(st.Waypoint, base.Waypoint)
	fillShared(h, st, touched, changed)
	ParallelFor(len(h.Dsts)+len(h.TCs), func(i int) {
		if i < len(h.Dsts) {
			br := bl.DstRow(h.Dsts[i])
			copy(st.Dst[i], base.Dst[br])
			copy(st.RouteFilter[i], base.RouteFilter[br])
			copy(st.Static[i], base.Static[br])
		} else {
			r := i - len(h.Dsts)
			copy(st.TC[r], base.TC[bl.TCRow(h.TCs[r])])
		}
		fillRow(h, st, i, touched)
	})
	return st
}
