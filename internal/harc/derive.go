package harc

import (
	"runtime"

	"repro/internal/arc"
	"repro/internal/bitset"
)

// The presence rule. A destination's dETG is fixed by its constructs
// (paper §4.3, Figure 5 constraints 18-19, Algorithm 1): the aETG row
// (adjacencies and redistribution), the destination's route-filter row
// and its static-route row. A class's tcETG is its destination's dETG
// plus its own source attachments, less the slots an ACL removes for it.
// DeriveDst and DeriveTC are that rule, and every writer of a presence
// row calls them: the HARC's own state, read off the configuration
// (evalState), and every repaired state, from its edited constructs — the
// solver's model (core's extract), the concretized quotient repair, and
// the rows no sub-problem solved, which keep the deviations their
// configured ACLs make (DeriveConfiguredTCs). ValidateState checks a state
// against them, and the encoder's hierarchy constraints are their CNF
// form. Deviates is DeriveTC's inverse, the one statement of which slots
// an ACL removes for a class, and the translator, its one reader, calls
// it.

// DeriveDst sets destination row r of st to the presence st's construct
// rows imply:
//   - an intra-device edge into process p's outgoing vertex is present
//     when a static route for the destination leaves through p (the FIB
//     is authoritative) — else the self edge when p does not filter the
//     destination, a redistribution edge when it is in the aETG and
//     neither process filters the destination;
//   - an inter-device edge when its static route is set, or when it is
//     in the aETG and the receiving process does not filter the
//     destination;
//   - the destination's own attachment when its process does not filter
//     the destination; no source attachment and no other subnet's.
func (st *State) DeriveDst(r int) {
	l := st.lay
	dst, rf, static := l.Dsts[r], st.RouteFilter[r], st.Static[r]
	var staticProcs bitset.Set // by process id: a static route leaves through it
	static.Each(func(id int) {
		if staticProcs == nil {
			staticProcs = bitset.New(len(l.Procs))
		}
		staticProcs.Put(l.Slots[id].FromProcID, true)
	})
	row := st.own(&st.Dst[r], st.dstStamp(r))
	for id, s := range l.Slots {
		var v bool
		switch s.Kind {
		case arc.SlotIntraSelf:
			v = !rf.Has(s.FromProcID) || staticProcs.Has(s.FromProcID)
		case arc.SlotIntraRedist:
			v = (st.All.Has(id) && !rf.Has(s.FromProcID) && !rf.Has(s.ToProcID)) || staticProcs.Has(s.FromProcID)
		case arc.SlotInterDevice:
			v = (st.All.Has(id) && !rf.Has(s.ToProcID)) || static.Has(id)
		case arc.SlotDest:
			v = s.Subnet == dst && !rf.Has(s.FromProcID)
		}
		row.Put(id, v)
	}
}

// DeriveTC sets class row r of st to its destination's row, plus the
// class's source attachments whose gateway routes toward the destination
// (gatewayRoutes), minus dev: the deviations, slots an ACL removes for the
// class (nil: none). An ACL acts on interfaces, so dev holds inter-device
// and attachment slots only.
func (st *State) DeriveTC(r int, dev bitset.Set) {
	l := st.lay
	d := l.DstOf(r)
	row := st.own(&st.TC[r], st.tcStamp(r))
	copy(row, st.Dst[d])
	for _, id := range l.SrcSlots(r) {
		row.Put(int(id), st.gatewayRoutes(d, l.Slots[id]))
	}
	for i, w := range dev {
		row[i] &^= w
	}
}

// gatewayRoutes reports whether source attachment s's gateway process
// routes toward destination row d, that is, does not filter it: the
// attachment's parent, whose presence a class's row has unless an ACL
// removes it.
func (st *State) gatewayRoutes(d int, s *arc.Slot) bool { return !st.RouteFilter[d].Has(s.ToProcID) }

// Deviates reports whether class row r deviates at slot id: the row lacks
// the slot although the slot's parent has it, so only a deny at the slot's
// deny site (arc.Slot.DenySite) explains its absence. The parent of an
// inter-device or destination slot is the destination's row; that of one
// of the class's own source attachments is its gateway's route to the
// destination (gatewayRoutes). An intra-device slot, or another subnet's
// attachment, never deviates. This is DeriveTC's inverse: DeriveTC(r,
// dev), with dev the slots at which row r deviates, gives row r back.
func (st *State) Deviates(r, id int) bool {
	l := st.lay
	s, d := l.Slots[id], l.DstOf(r)
	if intf, _ := s.DenySite(); intf == nil || st.TC[r].Has(id) {
		return false
	}
	if s.Kind == arc.SlotSource {
		return s.Subnet == l.TCs[r].Src && st.gatewayRoutes(d, s)
	}
	return st.Dst[d].Has(id)
}

// evalState reads the configuration into a fresh state of h's layout —
// the aETG row, costs, waypoints, and per destination its route filters
// and static routes — and derives every presence row from it, with the
// ACLs that block a class as its deviations. Rows are independent within
// a level and fill in parallel, each worker writing only its own.
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
	ParallelFor(len(h.Dsts), runtime.GOMAXPROCS(0), func(r int) {
		dst, rf, static := h.Dsts[r], st.RouteFilter[r], st.Static[r]
		for pid, p := range h.Procs {
			rf.Put(pid, p.BlocksDestination(dst.Prefix))
		}
		for id, s := range h.Slots {
			if s.Kind == arc.SlotInterDevice {
				static.Put(id, s.StaticBacked(dst) != nil)
			}
		}
		st.DeriveDst(r)
	})
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
	h.DeriveConfiguredTCs(st, nil)
	return st
}

// DeriveConfiguredTCs derives class rows rows of st (nil: every class of
// h), each less the deviations the configuration's ACLs make for it,
// evaluated against its destination's current row in st: the rows of
// h's own state, and the rows of a repaired state that no sub-problem
// solved. st must be of h's layout. Each worker strides over the rows
// with one deviation row of its own.
func (h *HARC) DeriveConfiguredTCs(st *State, rows []int) {
	n := len(h.TCs)
	if rows != nil {
		n = len(rows)
	}
	off, acls := dstACLs(h, st)
	workers := min(runtime.GOMAXPROCS(0), n)
	ParallelFor(workers, workers, func(w int) {
		dev := bitset.New(len(h.Slots))
		for i := w; i < n; i += workers {
			r := i
			if rows != nil {
				r = rows[i]
			}
			d := h.DstOf(r)
			st.DeriveTC(r, aclDeviations(h, r, acls[off[d]:off[d+1]], dev))
		}
	})
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

// aclDeviations returns the slots the configuration's ACLs remove for
// class row r, written into scratch, or nil when none does: every slot
// guarded by one of acls (its destination's, dstACLs) that blocks the
// class, and each of its source attachments whose inbound list blocks it.
// On dc-256 a class evaluates 5 ACLs, and 680 (class, slot) pairs of the
// 2,256 classes end up removed.
func aclDeviations(h *HARC, r int, acls []int32, scratch bitset.Set) bitset.Set {
	tc := h.TCs[r]
	var dev bitset.Set
	put := func(id int) {
		if dev == nil {
			dev = scratch
			clear(dev)
		}
		dev.Put(id, true)
	}
	for _, a := range acls {
		if h.ACLs[a].Blocks(tc.Src.Prefix, tc.Dst.Prefix) {
			for _, id := range h.Guarded(a) {
				put(int(id))
			}
		}
	}
	for _, id := range h.SrcSlots(r) {
		if a := h.Slots[id].SourceACL(); a != 0 && h.ACLs[a].Blocks(tc.Src.Prefix, tc.Dst.Prefix) {
			put(int(id))
		}
	}
	return dev
}
