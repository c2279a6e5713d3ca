// Package harc implements the Hierarchical Abstract Representation for
// Control planes (paper §4.3): a traffic-class ETG per (src,dst) pair, a
// destination ETG per destination subnet, and one all-traffic-classes
// ETG, all derived from a shared slot table so the hierarchy invariants
// hold by construction.
//
// The package also defines State — the assignment of per-level presence
// booleans and edge costs that the repair engine searches over — and can
// rebuild ETGs from a repaired State for re-verification.
package harc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arc"
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
}

func newLayout(n *topology.Network, tcs []topology.TrafficClass) *Layout {
	l := &Layout{
		Table:  arc.NewTable(n),
		TCs:    tcs,
		tcRow:  make(map[string]int, len(tcs)),
		dstRow: make(map[string]int),
	}
	for i, tc := range tcs {
		l.tcRow[tc.Key()] = i
		if _, seen := l.dstRow[tc.Dst.Name]; !seen {
			l.dstRow[tc.Dst.Name] = len(l.Dsts)
			l.Dsts = append(l.Dsts, tc.Dst)
		}
	}
	return l
}

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

// HARC bundles the three ETG layers of a network for a set of traffic
// classes. D and TC are indexed by the layout's destination and
// traffic-class rows.
type HARC struct {
	*Layout
	Network *topology.Network

	A  *arc.ETG
	D  []*arc.ETG
	TC []*arc.ETG
}

// Build constructs the HARC over every traffic class of the network.
func Build(n *topology.Network) *HARC {
	return BuildForTCs(n, n.TrafficClasses())
}

// ParallelFor runs fn(0..n-1) on one worker per core, handing indexes
// out through a shared counter. Callers write results into slot i of a
// preallocated slice, so assembly order is the input order whatever the
// interleaving.
func ParallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// BuildForTCs constructs the HARC restricted to the given traffic classes
// (used by the per-destination decomposition of §5.3).
func BuildForTCs(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	h := BuildLite(n, tcs)
	h.A = arc.BuildAllETG(h.Table)
	// Each per-class and per-destination ETG is a pure function of the
	// immutable slot table, so they build concurrently, each into its own
	// row.
	h.D = make([]*arc.ETG, len(h.Dsts))
	h.TC = make([]*arc.ETG, len(tcs))
	ParallelFor(len(h.Dsts)+len(tcs), func(i int) {
		if i < len(h.Dsts) {
			h.D[i] = arc.BuildDstETG(h.Table, h.Dsts[i])
		} else {
			h.TC[i-len(h.Dsts)] = arc.BuildTCETG(h.Table, tcs[i-len(h.Dsts)])
		}
	})
	return h
}

// BuildLite constructs the slot table and class/destination rows of a
// HARC without materializing any ETG — enough for StateOf and the
// *FromState builders, which read only the layout. Verifiers that
// compare states (rather than graphs) use it to skip the dominant cost
// of BuildForTCs.
func BuildLite(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	return &HARC{Layout: newLayout(n, tcs), Network: n}
}

// TCETG returns the tcETG for tc, or nil if the HARC holds none.
func (h *HARC) TCETG(tc topology.TrafficClass) *arc.ETG {
	if r := h.TCRow(tc); r >= 0 && r < len(h.TC) {
		return h.TC[r]
	}
	return nil
}

// DETG returns the dETG for dst, or nil if the HARC holds none.
func (h *HARC) DETG(dst *topology.Subnet) *arc.ETG {
	if r := h.DstRow(dst); r >= 0 && r < len(h.D) {
		return h.D[r]
	}
	return nil
}

// ValidateHierarchy checks the HARC well-formedness invariants of §4.3:
// every tcETG edge exists in the corresponding dETG, and every dETG edge
// exists in the aETG or (inter-device only) is backed by a static route.
func (h *HARC) ValidateHierarchy() error {
	for _, tc := range h.TCs {
		tcETG := h.TCETG(tc)
		dETG := h.DETG(tc.Dst)
		for _, s := range h.Slots {
			if s.Kind == arc.SlotSource {
				continue // source edges exist only at the tc level
			}
			if tcETG.HasSlot(s) && !dETG.HasSlot(s) {
				return fmt.Errorf("harc: edge %s in tcETG(%s) but not dETG(%s)", s.Key(), tc, tc.Dst.Name)
			}
		}
	}
	for _, dst := range h.Dsts {
		dETG := h.DETG(dst)
		for _, s := range h.Slots {
			if !dETG.HasSlot(s) {
				continue
			}
			switch s.Kind {
			case arc.SlotInterDevice:
				if !h.A.HasSlot(s) && s.StaticBacked(dst) == nil {
					return fmt.Errorf("harc: inter-device edge %s in dETG(%s) without aETG edge or static route", s.Key(), dst.Name)
				}
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				if !h.A.HasSlot(s) && !arc.ProcStaticFor(s.FromProc, dst) {
					return fmt.Errorf("harc: intra-device edge %s in dETG(%s) but not aETG", s.Key(), dst.Name)
				}
			}
		}
	}
	return nil
}

// BuildTCETGFromState materializes the tcETG encoded in the state for tc:
// the graph with exactly the slots marked present at the tc level, using
// the state's costs. Used to re-verify repaired HARCs before translation.
func BuildTCETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	var present []*arc.Slot
	st.TCBits(tc).Each(func(id int) {
		if s := h.Slots[id]; s.ApplicableTC(tc) {
			present = append(present, s)
		}
	})
	return etgFromState(h, st, tc, present)
}

// BuildRoutingETGFromState materializes the routing graph encoded in the
// state for tc: destination-level presence for every slot (route
// selection is ACL-blind) plus tc's own attachment edges. The source
// attachment uses tc-level presence — a blocked entry drops traffic
// outright, it cannot be routed around.
func BuildRoutingETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	tcRow, dstRow := st.TCBits(tc), st.DstBits(tc.Dst)
	var present []*arc.Slot
	for id, s := range h.Slots {
		if !s.ApplicableTC(tc) {
			continue
		}
		if s.Kind == arc.SlotSource {
			if !tcRow.Has(id) {
				continue
			}
		} else if !dstRow.Has(id) {
			continue
		}
		present = append(present, s)
	}
	return etgFromState(h, st, tc, present)
}

func etgFromState(h *HARC, st *State, tc topology.TrafficClass, present []*arc.Slot) *arc.ETG {
	etg := arc.NewETG(h.Table, arc.LevelTC, present, func(s *arc.Slot) int64 { return st.SlotCost(s, tc.Dst) })
	etg.TC = tc
	etg.DstSubnet = tc.Dst
	etg.Waypoints = st.Waypoint
	return etg
}

// ValidateState checks the hierarchy invariants on an explicit state
// (constraints 18-19 of Figure 5 plus the static-backing rule for
// intra-device edges).
func (h *HARC) ValidateState(st *State) error {
	for _, tc := range h.TCs {
		dm := st.DstBits(tc.Dst)
		var err error
		st.TCBits(tc).Each(func(id int) {
			if s := h.Slots[id]; err == nil && s.Kind != arc.SlotSource && !dm.Has(id) {
				err = fmt.Errorf("harc: state has %s in tcETG(%s) but not dETG(%s)", s.Key(), tc, tc.Dst.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, dst := range h.Dsts {
		r := st.lay.DstRow(dst)
		if r < 0 {
			continue
		}
		var err error
		st.Dst[r].Each(func(id int) {
			s := h.Slots[id]
			if err != nil || (s.Kind != arc.SlotIntraSelf && s.Kind != arc.SlotIntraRedist) {
				return
			}
			if !st.All.Has(id) && !st.procStatic(h, r, s.FromProcID) {
				err = fmt.Errorf("harc: state has intra edge %s in dETG(%s) but not aETG", s.Key(), dst.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
