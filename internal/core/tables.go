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
// vertex space. Positions (indices into slots), slot ids and local
// vertices are int32, and the three groupings are CSR: one offsets array
// and one backing each.
type tcTables struct {
	// slots are the applicable slot ids, ascending.
	slots []int32
	// fromV/toV are local vertex indices aligned with slots (i.e. indexed
	// by position within slots, not by slot id). Local vertices number the
	// table's vertices in order of first appearance, after SRC = 0 and
	// DST = 1; nv counts them.
	fromV, toV []int32
	nv         int
	// byTail/byHead group slot positions by tail and head vertex.
	byTail, byHead groups
	// links groups applicable inter-device slot positions by physical
	// link, in first-appearance order (PC3's disjointness constraints).
	links groups
}

// groups is a grouping of slot positions in CSR form: group g's
// positions, ascending, are pos[off[g]:off[g+1]].
type groups struct {
	off, pos []int32
}

// n returns the number of groups.
func (g groups) n() int { return len(g.off) - 1 }

// at returns group i's positions.
func (g groups) at(i int) []int32 { return g.pos[g.off[i]:g.off[i+1]] }

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
	aligned := make([]int32, 3*n)
	t := &tcTables{nv: 2, slots: aligned[:0:n], fromV: aligned[n : n : 2*n], toV: aligned[2*n : 2*n : 3*n]}
	local := make([]int32, len(tb.h.Vertices)) // 0 = not numbered yet (or SRC)
	local[arc.VDst] = 1
	vertex := func(v graph.V) int32 {
		if v > arc.VDst && local[v] == 0 {
			local[v] = int32(t.nv)
			t.nv++
		}
		return local[v]
	}
	linkIdx := make([]int32, len(tb.h.Links)) // 1 + index into t.links; 0 = unseen
	nLinks, nInter := 0, 0
	for i, s := range tb.slots {
		if !s.ApplicableTC(tc) {
			continue
		}
		t.slots = append(t.slots, int32(i))
		t.fromV = append(t.fromV, vertex(s.From))
		t.toV = append(t.toV, vertex(s.To))
		if s.Kind == arc.SlotInterDevice {
			nInter++
			if linkIdx[s.LinkID] == 0 {
				nLinks++
				linkIdx[s.LinkID] = int32(nLinks)
			}
		}
	}
	// The three groupings share one allocation.
	back := make([]int32, 2*(t.nv+1)+nLinks+1+2*n+nInter)
	carve := func(k int) []int32 {
		r := back[:k:k]
		back = back[k:]
		return r
	}
	t.byTail = groups{carve(t.nv + 1), carve(n)}
	t.byHead = groups{carve(t.nv + 1), carve(n)}
	t.links = groups{carve(nLinks + 1), carve(nInter)}
	t.byTail.fill(n, func(k int) int32 { return t.fromV[k] })
	t.byHead.fill(n, func(k int) int32 { return t.toV[k] })
	t.links.fill(n, func(k int) int32 {
		if s := tb.slots[t.slots[k]]; s.Kind == arc.SlotInterDevice {
			return linkIdx[s.LinkID] - 1
		}
		return -1
	})
	return t
}

// fill groups positions 0..n-1 by group(k) into g, whose off and pos are
// sized for it (a negative group is none): count, prefix-sum, place.
func (g groups) fill(n int, group func(k int) int32) {
	for k := 0; k < n; k++ {
		if gi := group(k); gi >= 0 {
			g.off[gi+1]++
		}
	}
	for i := 1; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	// Place each position at its group's next free index, using the
	// group's start as the cursor, then shift the starts back.
	for k := 0; k < n; k++ {
		if gi := group(k); gi >= 0 {
			g.pos[g.off[gi]] = int32(k)
			g.off[gi]++
		}
	}
	copy(g.off[1:], g.off[:len(g.off)-1])
	g.off[0] = 0
}
