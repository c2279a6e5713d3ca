package core

import (
	"sync"

	"repro/internal/arc"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/topology"
)

// tables is the per-repair structure shared by every sub-problem encoder:
// the per-destination and per-traffic-class applicability lists with
// their local vertex numbering. Slot keys, cost keys, canonical adjacency
// directions and slot/process/link/vertex ids live on the HARC's slot
// table. A row is built by the first encoder that needs it (need) and
// read-only from then on; it is a function of the slot table and the
// class alone, so which worker builds it changes nothing.
type tables struct {
	h     *harc.HARC
	slots []*arc.Slot
	// tc and dst are indexed by the HARC's traffic-class and destination
	// rows; a row may be read only after need has returned for its class.
	tc      []*tcTables
	dst     [][]int // applicable slot ids, ascending
	tcOnce  []sync.Once
	dstOnce []sync.Once

	// prep is the network-only half of symmetry compression, made by the
	// first sub-problem that compresses and shared by the rest; quots holds
	// one quotient per compression spec, keyed by compress.Prepared.Key.
	prepOnce sync.Once
	prep     *compress.Prepared
	quotMu   sync.Mutex
	quots    map[string]*sharedQuotient
}

// sharedQuotient is the quotient of the repair's network for one
// compression spec. Build reads a spec only through its relevant subnets
// and its redundancy, so every sub-problem whose spec has the same key gets
// the very quotient it would have built itself: the first to ask builds
// it, the rest wait for it. The concrete network's inter-device slots,
// grouped by the quotient's classes, are grouped on the first
// concretization. Like the tables, it dies with the repair.
type sharedQuotient struct {
	once sync.Once
	q    *compress.Quotient
	err  error

	groupsOnce sync.Once
	groups     *interGroups
}

// quotientBuilt, when set, is told about every quotient the repair builds.
// Only tests set it, to count them.
var quotientBuilt func()

// quotient returns the repair's quotient for spec, building it on first
// use.
func (tb *tables) quotient(spec compress.Spec) (*sharedQuotient, error) {
	prep := tb.prepared()
	key := prep.Key(spec)
	tb.quotMu.Lock()
	sq := tb.quots[key]
	if sq == nil {
		if tb.quots == nil {
			tb.quots = make(map[string]*sharedQuotient)
		}
		sq = new(sharedQuotient)
		tb.quots[key] = sq
	}
	tb.quotMu.Unlock()
	sq.once.Do(func() {
		if quotientBuilt != nil {
			quotientBuilt()
		}
		sq.q, sq.err = prep.Build(spec)
	})
	return sq, sq.err
}

// concreteGroups returns h's inter-device slots grouped by the quotient's
// classes (groupInterSlots).
func (sq *sharedQuotient) concreteGroups(h *harc.HARC) *interGroups {
	sq.groupsOnce.Do(func() { sq.groups = groupInterSlots(h, sq.q.ClassOf) })
	return sq.groups
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

// newTables returns the (still empty) shared tables of a repair over h.
func newTables(h *harc.HARC) *tables {
	return &tables{
		h:       h,
		slots:   h.Slots,
		tc:      make([]*tcTables, len(h.TCs)),
		dst:     make([][]int, len(h.Dsts)),
		tcOnce:  make([]sync.Once, len(h.TCs)),
		dstOnce: make([]sync.Once, len(h.Dsts)),
	}
}

// prepared returns the network prepared for compress.Build.
func (tb *tables) prepared() *compress.Prepared {
	tb.prepOnce.Do(func() { tb.prep = compress.Prepare(tb.h.Network) })
	return tb.prep
}

// need makes the rows of tc and of its destination readable by the
// caller, building each if no encoder has yet: when every sub-problem
// compresses, nobody needs the concrete network's rows at all.
func (tb *tables) need(tc topology.TrafficClass) {
	r := tb.h.TCRow(tc)
	tb.tcOnce[r].Do(func() { tb.tc[r] = tb.buildTC(tc) })
	d := tb.h.DstRow(tc.Dst)
	tb.dstOnce[d].Do(func() {
		for i, s := range tb.slots {
			if s.ApplicableDst(tc.Dst) {
				tb.dst[d] = append(tb.dst[d], i)
			}
		}
	})
}

func (tb *tables) buildTC(tc topology.TrafficClass) *tcTables {
	n := 0
	for _, s := range tb.slots {
		if s.ApplicableTC(tc) {
			n++
		}
	}
	aligned := make([]int, 3*n)
	t := &tcTables{nv: 2, slots: aligned[:0:n], fromV: aligned[n : n : 2*n], toV: aligned[2*n : 2*n : 3*n]}
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
	linkOf := make([]int, 0, n)             // per position, its index into t.links; -1 = not inter-device
	nLinks := 0
	for i, s := range tb.slots {
		if !s.ApplicableTC(tc) {
			continue
		}
		t.slots = append(t.slots, i)
		t.fromV = append(t.fromV, vertex(s.From))
		t.toV = append(t.toV, vertex(s.To))
		li := -1
		if s.Kind == arc.SlotInterDevice {
			if li = linkIdx[s.LinkID] - 1; li < 0 {
				li = nLinks
				nLinks++
				linkIdx[s.LinkID] = li + 1
			}
		}
		linkOf = append(linkOf, li)
	}
	t.byTail = groupPositions(t.fromV, t.nv)
	t.byHead = groupPositions(t.toV, t.nv)
	t.links = groupPositions(linkOf, nLinks)
	return t
}

// groupPositions returns, for each of n groups, the positions k with
// group[k] == that group, ascending (a negative entry belongs to none).
// The lists are carved out of one backing array: count, prefix-sum, fill.
func groupPositions(group []int, n int) [][]int {
	start := make([]int, n+1)
	for _, g := range group {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 0; g < n; g++ {
		start[g+1] += start[g]
	}
	back := make([]int, start[n])
	out := make([][]int, n)
	for g := range out {
		out[g] = back[start[g]:start[g]:start[g+1]]
	}
	for k, g := range group {
		if g >= 0 {
			out[g] = append(out[g], k)
		}
	}
	return out
}
