package arc

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/topology"
)

// The PC3 flow kflow.go replaced, kept as the slow reference
// (TestKFlowMatchesReference, FuzzKFlow): every check derives an auxiliary
// network of its own from the ETG's present slots alone — links numbered
// in first-seen order, CSR rebuilt per call — and augments along forward
// BFS paths from SRC (Edmonds–Karp). It shares no code with the skeleton
// and the bidirectional search.

// refFlowEdge is one direction of a residual pair. Arcs are created in
// pairs with adjacent ids, so the reverse of arc id is id^1.
type refFlowEdge struct {
	to  int32
	cap int32
}

// refFlowNet is the per-ETG auxiliary flow network in CSR form. Vertices
// 0..nv-1 mirror the ETG's vertices; two extra vertices per physical link
// seen carry its capacity-1 bottleneck edge.
type refFlowNet struct {
	edges    []refFlowEdge
	adjOff   []int32          // CSR row offsets per vertex, len = V+1
	adjList  []int32          // arc ids grouped by tail vertex, len = len(edges)
	linkSeq  []*topology.Link // first-seen order
	linkEdge []int32          // bottleneck arc id per linkSeq entry
}

// newRefFlowNet assembles the auxiliary network for the ETG with
// non-failable capacities clamped to k.
func newRefFlowNet(e *ETG, k int) *refFlowNet {
	f := &refFlowNet{}
	nv := len(e.tab.Vertices)
	linkIdx := make([]int32, len(e.tab.Links))
	for i := range linkIdx {
		linkIdx[i] = -1
	}
	var eKind, eFrom, eTo []int32
	e.EachSlot(func(s *Slot) {
		li := int32(-1)
		if s.Kind == SlotInterDevice {
			li = linkIdx[s.LinkID]
			if li < 0 {
				li = int32(len(f.linkSeq))
				linkIdx[s.LinkID] = li
				f.linkSeq = append(f.linkSeq, s.Link)
			}
		}
		eKind = append(eKind, li)
		eFrom = append(eFrom, int32(s.From))
		eTo = append(eTo, int32(s.To))
	})

	L := len(f.linkSeq)
	nInter, nOther := 0, 0
	for _, li := range eKind {
		if li >= 0 {
			nInter++
		} else {
			nOther++
		}
	}
	V := nv + 2*L
	A := 2 * (L + 2*nInter + nOther)
	f.adjOff = make([]int32, V+1)
	f.adjList = make([]int32, A)
	f.edges = make([]refFlowEdge, A)
	f.linkEdge = make([]int32, L)

	linkIn := func(i int32) int32 { return int32(nv) + 2*i }
	linkOut := func(i int32) int32 { return int32(nv) + 2*i + 1 }

	deg := func(v int32) { f.adjOff[v+1]++ }
	for i := int32(0); i < int32(L); i++ {
		deg(linkIn(i))
		deg(linkOut(i))
	}
	for j, li := range eKind {
		u, v := eFrom[j], eTo[j]
		if li >= 0 {
			deg(u)
			deg(linkIn(li))
			deg(linkOut(li))
			deg(v)
		} else {
			deg(u)
			deg(v)
		}
	}
	for v := 0; v < V; v++ {
		f.adjOff[v+1] += f.adjOff[v]
	}

	cur := append([]int32(nil), f.adjOff[:V]...)
	next := int32(0)
	addArc := func(u, v, capacity int32) int32 {
		id := next
		next += 2
		f.edges[id] = refFlowEdge{to: v, cap: capacity}
		f.edges[id+1] = refFlowEdge{to: u, cap: 0}
		f.adjList[cur[u]] = id
		cur[u]++
		f.adjList[cur[v]] = id + 1
		cur[v]++
		return id
	}
	kcap := int32(k)
	for li := range f.linkEdge {
		f.linkEdge[li] = -1
	}
	for j, li := range eKind {
		u, v := eFrom[j], eTo[j]
		if li >= 0 {
			if f.linkEdge[li] < 0 {
				f.linkEdge[li] = addArc(linkIn(li), linkOut(li), 1)
			}
			addArc(u, linkIn(li), kcap)
			addArc(linkOut(li), v, kcap)
		} else {
			addArc(u, v, kcap)
		}
	}
	return f
}

func (f *refFlowNet) out(v int32) []int32 {
	return f.adjList[f.adjOff[v]:f.adjOff[v+1]]
}

// maxFlow runs BFS augmenting paths from src to dst, stopping once the
// flow reaches want.
func (f *refFlowNet) maxFlow(src, dst int32, want int) int {
	if src == dst {
		return want
	}
	total := 0
	n := len(f.adjOff) - 1
	pred := make([]int32, n)
	for total < want {
		visited := make([]bool, n)
		queue := []int32{src}
		visited[src] = true
		found := false
	bfs:
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, id := range f.out(v) {
				ed := &f.edges[id]
				if ed.cap <= 0 || visited[ed.to] {
					continue
				}
				visited[ed.to] = true
				pred[ed.to] = id
				if ed.to == dst {
					found = true
					break bfs
				}
				queue = append(queue, ed.to)
			}
		}
		if !found {
			return total
		}
		bottleneck := int32(want - total)
		for v := dst; v != src; {
			ed := &f.edges[pred[v]]
			if ed.cap < bottleneck {
				bottleneck = ed.cap
			}
			v = f.edges[pred[v]^1].to
		}
		for v := dst; v != src; {
			id := pred[v]
			f.edges[id].cap -= bottleneck
			f.edges[id^1].cap += bottleneck
			v = f.edges[id^1].to
		}
		total += int(bottleneck)
	}
	return total
}

// refLinkDisjointFlow is LinkDisjointFlow by the per-ETG construction.
func refLinkDisjointFlow(e *ETG, k int) int {
	if k < 1 {
		return 0
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return 0
	}
	return newRefFlowNet(e, k).maxFlow(int32(e.Src), int32(e.Dst), k)
}

// refMinLinkCut is MinLinkCut by the per-ETG construction.
func refMinLinkCut(e *ETG, k int) (links []*topology.Link, ok bool) {
	if k < 1 {
		return nil, false
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return nil, true
	}
	if !e.G.PathExists(e.Src, e.Dst) {
		return nil, true
	}
	f := newRefFlowNet(e, k)
	if f.maxFlow(int32(e.Src), int32(e.Dst), k) >= k {
		return nil, false
	}
	// Residual-reachable side of the cut: the bottleneck edges crossing it
	// are exactly a minimum set of links to fail.
	seen := make([]bool, len(f.adjOff)-1)
	seen[e.Src] = true
	stack := []int32{int32(e.Src)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range f.out(v) {
			ed := &f.edges[id]
			if ed.cap <= 0 || seen[ed.to] {
				continue
			}
			seen[ed.to] = true
			stack = append(stack, ed.to)
		}
	}
	for i, id := range f.linkEdge {
		ed := f.edges[id]
		from := f.edges[id^1].to
		if seen[from] && !seen[ed.to] {
			links = append(links, f.linkSeq[i])
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].Name() < links[j].Name() })
	return links, true
}
