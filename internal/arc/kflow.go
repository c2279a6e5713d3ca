package arc

import (
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/topology"
)

// PC3 ("reachable under < k physical-link failures") is decided exactly by
// a max-flow computation instead of enumerating every (k-1)-subset of
// links. By Menger's theorem lifted to whole-link failures, SRC reaches DST
// under every failure of fewer than k physical links iff the minimum number
// of physical links whose removal disconnects SRC from DST is at least k.
// That quantity is the max flow of an auxiliary network with one capacity-1
// bottleneck per physical link: every tcETG edge over a link is routed
// through its link's bottleneck, so two ETG edges sharing a link (the two
// directions, or parallel process pairs) can never count as disjoint.
// Intra-device and attachment edges never fail; their capacity is clamped
// to k, which preserves the "flow >= k" verdict while keeping the flow
// finite. The computation stops as soon as k augmenting paths exist.
//
// The network is split into what the slot table fixes and what a check
// adds. Its shape — vertices, arcs, which slot each arc stands for — is the
// same for every ETG of a table and is built once per table (flowShape); a
// slot absent from the ETG under check is an arc of capacity 0. A check
// brings only its live mask, k, and a pooled scratch holding the flow it
// pushes and the marks of its searches, so it costs what its searches
// touch, not what the network holds.
//
// Which augmenting paths the search finds does not matter to any answer:
// the value of a maximum flow is unique, and when it is below k the set of
// vertices reachable from SRC in the residual network of *any* maximum flow
// is the same (the source side of the unique minimal minimum cut), hence so
// are the bottlenecks leaving it that MinLinkCut reports.
// VerifyKReachableExhaustive retains the ground-truth subset enumeration
// and kflow_reference_test.go the per-ETG forward construction this
// replaced; TestKFlowMatchesExhaustive, TestKFlowMatchesReference and
// FuzzKFlow pin all three to each other.

// flowShape is the table-wide part of the auxiliary network, in CSR form,
// immutable once built. Vertices are the table's, followed by an (in, out)
// pair per link carrying the link's capacity-1 bottleneck. Arcs come in
// residual pairs with adjacent ids (the partner of arc id is id^1, even ids
// point forward): pair l < len(Links) is link l's bottleneck, and the rest
// follow the slots in id order — u→in(l) and out(l)→v for an inter-device
// slot u→v over link l, u→v itself for any other slot.
type flowShape struct {
	adjOff   []int32 // CSR row offsets per vertex, len = vertices+1
	adjList  []int32 // arc ids grouped by tail vertex, ascending per vertex
	head     []int32 // head vertex per arc
	pairSlot []int32 // per arc pair (id>>1): its slot id, or -1 for a bottleneck
}

// flowShape returns the table's flow skeleton, building it on first use:
// a table that never sees a PC3 check never pays for one. It reads only
// Slots, Links and Vertices.
func (t *Table) flowShape() *flowShape {
	t.flowOnce.Do(func() { t.flow = newFlowShape(t) })
	return t.flow
}

func newFlowShape(t *Table) *flowShape {
	nv, nl := len(t.Vertices), len(t.Links)
	pairs := nl
	for _, s := range t.Slots {
		if s.Kind == SlotInterDevice {
			pairs += 2
		} else {
			pairs++
		}
	}
	nVert, nArcs := nv+2*nl, 2*pairs
	// One backing array for the four tables. adjOff is cut one entry long:
	// degrees are counted two rows ahead, so that after the prefix sums row
	// v+1 holds v's start and serves as v's fill cursor, ending on v's end —
	// the start of v+1, which is where it belongs.
	backing := make([]int32, (nVert+2)+2*nArcs+pairs)
	cut := func(n int) []int32 {
		s := backing[:n:n]
		backing = backing[n:]
		return s
	}
	sh := &flowShape{adjOff: cut(nVert + 2), adjList: cut(nArcs), head: cut(nArcs), pairSlot: cut(pairs)}

	next := int32(0)
	pair := func(u, v, slot int32) {
		sh.head[next], sh.head[next+1] = v, u
		sh.pairSlot[next>>1] = slot
		sh.adjOff[u+2]++
		sh.adjOff[v+2]++
		next += 2
	}
	linkIn := func(l int) int32 { return int32(nv + 2*l) }
	for l := 0; l < nl; l++ {
		pair(linkIn(l), linkIn(l)+1, -1)
	}
	for id, s := range t.Slots {
		u, v := int32(s.From), int32(s.To)
		if s.Kind == SlotInterDevice {
			pair(u, linkIn(s.LinkID), int32(id))
			pair(linkIn(s.LinkID)+1, v, int32(id))
		} else {
			pair(u, v, int32(id))
		}
	}
	for v := 2; v < len(sh.adjOff); v++ {
		sh.adjOff[v] += sh.adjOff[v-1]
	}
	for id := int32(0); id < int32(nArcs); id++ {
		tail := sh.head[id^1]
		sh.adjList[sh.adjOff[tail+1]] = id
		sh.adjOff[tail+1]++
	}
	sh.adjOff = sh.adjOff[:nVert+1]
	return sh
}

// out lists the arcs leaving v. Every arc is listed at both its ends — as
// itself at its tail, as its partner at its head — so the arcs entering v
// are the partners of the arcs leaving it.
func (sh *flowShape) out(v int32) []int32 {
	return sh.adjList[sh.adjOff[v]:sh.adjOff[v+1]]
}

// flowScratch is the per-check state over a flowShape, pooled per
// goroutine and reused across checks and tables: a steady-state check
// allocates nothing.
type flowScratch struct {
	// The check in progress: the shape, the ETG's live mask by slot id, and
	// the capacity of an arc that cannot fail.
	sh   *flowShape
	live bitset.Set
	k    int32

	// flow holds, per arc pair, the units on its forward arc. An arc's
	// residual capacity is computed from it, the live mask and k on demand;
	// a check zeroes the pairs it touched on its way out, so every entry is
	// 0 between checks whatever table comes next.
	flow    []int32
	touched []int32

	// A search marks a vertex stamp-1 when it reaches it from SRC and stamp
	// when it reaches it from DST; via is the arc it arrived by (into the
	// vertex on the SRC side, out of it on the DST side). Each search takes
	// a fresh pair of stamps, which makes every older mark stale without
	// clearing anything.
	mark   []int32
	via    []int32
	stamp  int32
	fq, bq []int32 // the two BFS queues; MinLinkCut's sweep reuses fq as its stack
	path   []int32
}

var flowPool = sync.Pool{New: func() any { return new(flowScratch) }}

// grow returns s resized to n, reusing its backing array when possible.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// begin points the scratch at one check.
func (f *flowScratch) begin(e *ETG, k int) {
	f.sh, f.live, f.k = e.tab.flowShape(), e.G.Live(), int32(k)
	nVert := len(f.sh.adjOff) - 1
	f.flow = grow(f.flow, len(f.sh.pairSlot))
	f.mark = grow(f.mark, nVert)
	f.via = grow(f.via, nVert)
	if cap(f.fq) < nVert {
		f.fq, f.bq, f.path = make([]int32, 0, nVert), make([]int32, 0, nVert), make([]int32, 0, nVert)
	}
}

// end undoes the check's flow and lets go of the table and the mask.
func (f *flowScratch) end() {
	for _, p := range f.touched {
		f.flow[p] = 0
	}
	f.touched = f.touched[:0]
	f.sh, f.live = nil, nil
}

// stamps starts a search: it returns the marks for "reached from SRC" and
// "reached from DST". The counter climbs for as long as the pool keeps the
// scratch alive; before it would wrap into values old marks still hold,
// every mark the scratch has ever held is cleared — its full capacity, not
// just the current table's share.
func (f *flowScratch) stamps() (fwd, bwd int32) {
	if f.stamp > math.MaxInt32-2 {
		clear(f.mark[:cap(f.mark)])
		f.stamp = 0
	}
	f.stamp += 2
	return f.stamp - 1, f.stamp
}

// residual returns the remaining capacity of arc id: what its pair carries
// forward for a backward arc; 1, or k if its slot is live, less that for a
// forward one.
func (f *flowScratch) residual(id int32) int32 {
	p := id >> 1
	if id&1 != 0 {
		return f.flow[p]
	}
	switch slot := f.sh.pairSlot[p]; {
	case slot < 0:
		return 1 - f.flow[p]
	case f.live.Has(int(slot)):
		return f.k - f.flow[p]
	}
	return 0
}

// search looks for an augmenting path from both ends at once: breadth
// first from src along residual arcs and from dst against them, a whole
// level at a time, always on the side whose frontier is smaller. It stops
// at the first residual arc from a vertex the SRC side has reached to one
// the DST side has and returns that arc (the path is then src … via … arc
// … via … dst), or -1 once either side runs out of frontier: its reached
// set is then closed under residual arcs and misses the other end. In a
// Clos fabric the frontiers meet at the spines, where a one-sided search
// would first visit every leaf.
func (f *flowScratch) search(src, dst int32) int32 {
	sh, mark, via := f.sh, f.mark, f.via
	fwd, bwd := f.stamps()
	fq, bq := append(f.fq[:0], src), append(f.bq[:0], dst)
	mark[src], mark[dst] = fwd, bwd
	fi, bi := 0, 0 // starts of the current frontiers
	for fi < len(fq) && bi < len(bq) {
		if len(fq)-fi <= len(bq)-bi {
			for end := len(fq); fi < end; fi++ {
				for _, id := range sh.out(fq[fi]) {
					w := sh.head[id]
					if mark[w] == fwd || f.residual(id) <= 0 {
						continue
					}
					if mark[w] == bwd {
						return id
					}
					mark[w], via[w] = fwd, id
					fq = append(fq, w)
				}
			}
		} else {
			for end := len(bq); bi < end; bi++ {
				for _, id := range sh.out(bq[bi]) {
					w, in := sh.head[id], id^1 // in runs w → bq[bi]
					if mark[w] == bwd || f.residual(in) <= 0 {
						continue
					}
					if mark[w] == fwd {
						return in
					}
					mark[w], via[w] = bwd, in
					bq = append(bq, w)
				}
			}
		}
	}
	return -1
}

// maxFlow augments from src to dst until the flow reaches want or no
// augmenting path is left, and returns the flow.
func (f *flowScratch) maxFlow(src, dst int32, want int) int {
	if src == dst {
		return want
	}
	sh, total := f.sh, int32(0)
	for total < int32(want) {
		join := f.search(src, dst)
		if join < 0 {
			break
		}
		path := append(f.path[:0], join)
		for v := sh.head[join^1]; v != src; v = sh.head[f.via[v]^1] {
			path = append(path, f.via[v])
		}
		for v := sh.head[join]; v != dst; v = sh.head[f.via[v]] {
			path = append(path, f.via[v])
		}
		push := int32(want) - total
		for _, id := range path {
			push = min(push, f.residual(id))
		}
		for _, id := range path {
			if id&1 == 0 {
				f.flow[id>>1] += push
			} else {
				f.flow[id>>1] -= push
			}
			f.touched = append(f.touched, id>>1)
		}
		total += push
	}
	return int(total)
}

// LinkDisjointFlow returns min(k, the maximum number of pairwise
// physical-link-disjoint SRC→DST paths in the ETG). A return of k means
// "at least k" — the computation stops early.
func LinkDisjointFlow(e *ETG, k int) int {
	if k < 1 {
		return 0
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return 0
	}
	f := flowPool.Get().(*flowScratch)
	flow := f.linkDisjointFlow(e, k)
	flowPool.Put(f)
	return flow
}

func (f *flowScratch) linkDisjointFlow(e *ETG, k int) int {
	f.begin(e, k)
	flow := f.maxFlow(int32(e.Src), int32(e.Dst), k)
	f.end()
	return flow
}

// MinLinkCut returns a minimum-cardinality set of physical links whose
// simultaneous failure disconnects SRC from DST, provided that set has
// fewer than k links; ok=false means every disconnecting set needs at
// least k links (the PC3 policy holds). The returned links are sorted by
// name, links of one name (parallel links between a device pair) in table
// order. An empty set with ok=true means SRC cannot reach DST even with no
// failures.
func MinLinkCut(e *ETG, k int) (links []*topology.Link, ok bool) {
	if k < 1 {
		return nil, false
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return nil, true
	}
	// Decided on the ETG itself, not by a flow of 0: a unit of flow may enter
	// a link's bottleneck by one slot and leave it by another, so under a
	// mask the slot rules would never produce the auxiliary network can
	// connect what the ETG does not.
	if !e.G.PathExists(e.Src, e.Dst) {
		return nil, true
	}
	f := flowPool.Get().(*flowScratch)
	links, ok = f.minLinkCut(e, k)
	flowPool.Put(f)
	return links, ok
}

func (f *flowScratch) minLinkCut(e *ETG, k int) (links []*topology.Link, ok bool) {
	f.begin(e, k)
	defer f.end()
	src := int32(e.Src)
	if f.maxFlow(src, int32(e.Dst), k) >= k {
		return nil, false
	}
	// The flow is maximum. The vertices its residual network still reaches
	// from SRC are the source side of the minimal minimum cut, and the
	// bottlenecks leaving that side are a minimum set of links to fail.
	sh, mark := f.sh, f.mark
	seen, _ := f.stamps()
	stack := append(f.fq[:0], src)
	mark[src] = seen
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range sh.out(v) {
			if w := sh.head[id]; mark[w] != seen && f.residual(id) > 0 {
				mark[w] = seen
				stack = append(stack, w)
			}
		}
	}
	for l, link := range e.tab.Links {
		if mark[sh.head[2*l+1]] == seen && mark[sh.head[2*l]] != seen {
			links = append(links, link)
		}
	}
	slices.SortStableFunc(links, func(a, b *topology.Link) int { return strings.Compare(a.Name(), b.Name()) })
	return links, true
}
