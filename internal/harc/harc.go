// Package harc implements the Hierarchical Abstract Representation for
// Control planes (paper §4.3): traffic-class, destination and
// all-traffic-classes levels, all derived from a shared slot table so the
// hierarchy invariants hold by construction.
//
// The hierarchy lives in State — the assignment of per-level presence
// booleans, edge costs and static-route distances that the repair engine
// searches over. Graphs exist only where a graph algorithm runs, and
// every one is a view of a State's rows weighted by its SlotCost: the
// tcETG of a class is its row, the routing graph of PC4 is laid from its
// destination's row. The HARC's own state and a repaired one are read
// the same way.
package harc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Layout is the integer identity a HARC shares with every State derived
// from it: the network's slot table (slot, process, link and vertex ids)
// plus the row numbers of the traffic classes and destinations the HARC
// covers. A State row is a bitset over one of the table's id spaces, so
// "is slot s present for class tc" is the bit at (TCRow(tc), s.ID).
type Layout struct {
	*arc.Table

	TCs  []topology.TrafficClass
	Dsts []*topology.Subnet // unique destinations of TCs, first-seen order

	tcRow  map[string]int // TrafficClass.Key() → index in TCs
	dstRow map[string]int // subnet name → index in Dsts
	tcDst  []int32        // by class row: its destination's row

	// The source attachment slots of the classes' source subnets in CSR
	// form: class row r's are srcSlots[srcOff[tcSrc[r]]:srcOff[tcSrc[r]+1]],
	// ascending.
	tcSrc, srcOff, srcSlots []int32
}

func newLayout(n *topology.Network, tcs []topology.TrafficClass) *Layout {
	l := &Layout{
		Table:  arc.NewTable(n),
		TCs:    tcs,
		tcRow:  make(map[string]int, len(tcs)),
		dstRow: make(map[string]int),
		tcDst:  make([]int32, len(tcs)),
		tcSrc:  make([]int32, len(tcs)),
	}
	srcNum := make(map[*topology.Subnet]int32)
	for i, tc := range tcs {
		l.tcRow[tc.Key()] = i
		d, seen := l.dstRow[tc.Dst.Name]
		if !seen {
			d = len(l.Dsts)
			l.dstRow[tc.Dst.Name] = d
			l.Dsts = append(l.Dsts, tc.Dst)
		}
		l.tcDst[i] = int32(d)
		s, seen := srcNum[tc.Src]
		if !seen {
			s = int32(len(srcNum))
			srcNum[tc.Src] = s
		}
		l.tcSrc[i] = s
	}
	// Counted two entries ahead, so that after the prefix sums entry s+1
	// is subnet s's fill cursor and ends on its end.
	l.srcOff = make([]int32, len(srcNum)+2)
	for _, sl := range l.Slots {
		if sl.Kind != arc.SlotSource {
			continue
		}
		if s, ok := srcNum[sl.Subnet]; ok {
			l.srcOff[s+2]++
		}
	}
	for i := 2; i < len(l.srcOff); i++ {
		l.srcOff[i] += l.srcOff[i-1]
	}
	l.srcSlots = make([]int32, l.srcOff[len(l.srcOff)-1])
	for id, sl := range l.Slots {
		if sl.Kind != arc.SlotSource {
			continue
		}
		if s, ok := srcNum[sl.Subnet]; ok {
			l.srcSlots[l.srcOff[s+1]] = int32(id)
			l.srcOff[s+1]++
		}
	}
	l.srcOff = l.srcOff[:len(srcNum)+1]
	return l
}

// SrcSlots returns the ids of class row r's source attachment slots,
// ascending: the only slots of its row no destination row has.
func (l *Layout) SrcSlots(r int) []int32 {
	s := l.tcSrc[r]
	return l.srcSlots[l.srcOff[s]:l.srcOff[s+1]]
}

// DstOf returns the row of class row r's destination.
func (l *Layout) DstOf(r int) int { return int(l.tcDst[r]) }

// TCRow returns the row of tc (matched by subnet names), or -1.
func (l *Layout) TCRow(tc topology.TrafficClass) int {
	if r, ok := l.tcRow[tc.Key()]; ok {
		return r
	}
	return -1
}

// DstRow returns the row of the destination named like dst, or -1.
func (l *Layout) DstRow(dst *topology.Subnet) int {
	if r, ok := l.dstRow[dst.Name]; ok {
		return r
	}
	return -1
}

// HARC bundles the three levels of a network for a set of traffic
// classes: the state its configuration evaluates to, and one tcETG per
// class (indexed by the layout's traffic-class rows) laid over it.
type HARC struct {
	*Layout
	Network *topology.Network

	TC []*arc.ETG

	// rows is the network's own state, evaluated from the slot rules once,
	// at build: every TC is a view of its class's presence row and StateOf
	// hands out copy-on-write clones of it. Nothing writes it afterwards.
	rows *State
	// verdicts records the checks made on rows (Verdicts).
	verdicts *Verdicts
}

// Build constructs the HARC over every traffic class of the network.
func Build(n *topology.Network) *HARC {
	return BuildForTCs(n, n.TrafficClasses())
}

// ParallelFor runs fn(0..n-1) on at most workers goroutines, the caller's
// among them, handing indexes out through a shared counter. Callers write
// results into slot i of a preallocated slice, so assembly order is the
// input order whatever the interleaving.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// BuildForTCs constructs the HARC restricted to the given traffic classes
// (used by the per-destination decomposition of §5.3). The tcETGs are
// views of the state rows BuildLite computed: a view costs two small
// headers, and a destination's weights are shared by every tcETG toward
// it, filled in only if something reads them.
func BuildForTCs(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	h := BuildLite(n, tcs)
	weights := make([]*graph.Weights, len(h.Dsts))
	for r, dst := range h.Dsts {
		weights[r] = stateWeights(h, h.rows, dst)
	}
	h.TC = make([]*arc.ETG, len(tcs))
	for r, tc := range tcs {
		h.TC[r] = view(h, h.rows, h.rows.TC[r], weights[h.DstRow(tc.Dst)])
	}
	return h
}

// BuildLite constructs the slot table, the class/destination rows and
// the state of a HARC without laying any ETG over them — all that StateOf
// reads. Verifiers that compare states (rather than graphs) use it.
func BuildLite(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	h := &HARC{Layout: newLayout(n, tcs), Network: n, verdicts: new(Verdicts)}
	h.rows = evalState(h)
	return h
}

// TCETG returns the tcETG of tc in the HARC's own state (see
// BuildTCETGFromState).
func (h *HARC) TCETG(tc topology.TrafficClass) *arc.ETG { return BuildTCETGFromState(h, nil, tc) }

// BuildTCETGFromState returns the tcETG state st holds for tc: a view of
// the class's presence row (empty when the state does not cover the
// class) at the state's SlotCost weights. A nil st is the HARC's own
// state, whose views TC holds. The view reads the row in place: the state
// must not change while the view is in use.
func BuildTCETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	if st == nil {
		if r := h.TCRow(tc); r >= 0 && r < len(h.TC) {
			return h.TC[r]
		}
		st = h.rows
	}
	row := st.TCBits(tc)
	if row == nil {
		row = bitset.New(len(h.Slots))
	}
	return view(h, st, row, stateWeights(h, st, tc.Dst))
}

// BuildRoutingETGFromState returns the graph route selection operates on
// for tc in the state, laid from the destination's row — presence at the
// destination level, since an ACL drops packets but never steers them —
// plus tc's own source attachments at the tc level: a blocked entry drops
// traffic outright, it cannot be routed around. Routing presence can
// strictly contain the tcETG; PC4 walks this graph, then checks the
// tcETG's use of the path. The graph owns its mask, one row's copy. A
// nil st is the HARC's own state.
func BuildRoutingETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	if st == nil {
		st = h.rows
	}
	live := bitset.New(len(h.Slots))
	copy(live, st.DstBits(tc.Dst))
	if r := st.lay.TCRow(tc); r >= 0 {
		for _, id := range st.lay.SrcSlots(r) {
			if st.TC[r].Has(int(id)) {
				live.Put(int(id), true)
			}
		}
	}
	return view(h, st, live, stateWeights(h, st, tc.Dst))
}

func view(h *HARC, st *State, live bitset.Set, w *graph.Weights) *arc.ETG {
	etg := arc.NewETG(h.Table, live, w)
	etg.Waypoints = st.Waypoint
	return etg
}

// stateWeights returns the lazily filled weights of st's graphs toward
// dst (SlotCost).
func stateWeights(h *HARC, st *State, dst *topology.Subnet) *graph.Weights {
	r := st.lay.DstRow(dst)
	return h.Weights(func(s *arc.Slot) int64 { return st.slotCost(s, r) })
}

// ValidateState checks that st is closed under the presence rule
// (DeriveDst, DeriveTC) — the soundness condition every evaluated and
// every repaired state meets: each destination row of h's classes is
// exactly what st's aETG and construct rows imply, and each class row is
// its derived row less deviations an ACL can make. So every tcETG edge is
// in its dETG (Figure 5 constraint 18), every dETG edge is in the aETG or
// backed by a static route (constraint 19), and an intra-device edge is
// in a class's row iff in its destination's.
func (h *HARC) ValidateState(st *State) error {
	derived := st.Clone()
	for _, dst := range h.Dsts {
		r := st.lay.DstRow(dst)
		if r < 0 {
			continue
		}
		derived.DeriveDst(r)
		var err error
		bitset.EachDiff(derived.Dst[r], st.Dst[r], func(id int) {
			if err == nil {
				err = fmt.Errorf("harc: dETG(%s) edge %s is %v in the state, %v by its constructs",
					dst.Name, st.lay.Slots[id].Key(), st.Dst[r].Has(id), derived.Dst[r].Has(id))
			}
		})
		if err != nil {
			return err
		}
	}
	for _, tc := range h.TCs {
		r := st.lay.TCRow(tc)
		if r < 0 {
			continue
		}
		derived.DeriveTC(r, nil)
		var err error
		bitset.EachDiff(derived.TC[r], st.TC[r], func(id int) {
			switch s := st.lay.Slots[id]; {
			case err != nil:
			case st.TC[r].Has(id):
				err = fmt.Errorf("harc: state has %s in tcETG(%s) but the rule derives it absent", s.Key(), tc)
			case s.Kind == arc.SlotIntraSelf || s.Kind == arc.SlotIntraRedist:
				err = fmt.Errorf("harc: state lacks intra-device edge %s in tcETG(%s) but has it in dETG(%s)", s.Key(), tc, tc.Dst.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
