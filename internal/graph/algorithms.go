package graph

import (
	"container/heap"
	"math"
	"sync"
)

// PathExists reports whether dst is reachable from src along live edges.
func (g *Digraph) PathExists(src, dst V) bool { return g.PathExistsAvoiding(src, dst, nil) }

// PathExistsAvoiding reports whether dst is reachable from src using only
// edges for which avoid (nil: none) returns false. The search stops at dst
// and works in pooled scratch, so a steady-state call allocates nothing.
func (g *Digraph) PathExistsAvoiding(src, dst V, avoid func(E) bool) bool {
	n := V(len(g.names))
	if src < 0 || dst < 0 || src >= n || dst >= n {
		return false
	}
	f := reachPool.Get().(*reachScratch)
	found := f.pathExists(g, src, dst, avoid)
	reachPool.Put(f)
	return found
}

// reachScratch is the state of one depth-first search, pooled per
// goroutine and reused across searches and graphs. A search marks a vertex
// with its own stamp when it reaches it, which makes every older mark
// stale without clearing anything.
type reachScratch struct {
	mark  []uint32
	stamp uint32
	stack []V
}

var reachPool = sync.Pool{New: func() any { return new(reachScratch) }}

func (f *reachScratch) pathExists(g *Digraph, src, dst V, avoid func(E) bool) bool {
	if src == dst {
		return true
	}
	if n := len(g.names); cap(f.mark) < n {
		f.mark = make([]uint32, n)
	} else {
		f.mark = f.mark[:n]
	}
	// Before the counter wraps into values old marks still hold, clear every
	// mark the scratch has ever held: its full capacity, not just this
	// graph's share.
	if f.stamp == math.MaxUint32 {
		clear(f.mark[:cap(f.mark)])
		f.stamp = 0
	}
	f.stamp++
	mark, seen := f.mark, f.stamp
	mark[src] = seen
	stack, found := append(f.stack[:0], src), false
search:
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[v] {
			if !g.live.Has(int(e)) || (avoid != nil && avoid(e)) {
				continue
			}
			to := g.head[e]
			if to == dst {
				found = true
				break search
			}
			if mark[to] != seen {
				mark[to] = seen
				stack = append(stack, to)
			}
		}
	}
	f.stack = stack
	return found
}

// PathAvoiding returns the vertices of some src→dst path using only
// edges for which avoid returns false, or nil if none exists (BFS).
func (g *Digraph) PathAvoiding(src, dst V, avoid func(E) bool) []V {
	if src < 0 || dst < 0 {
		return nil
	}
	n := len(g.names)
	pred := make([]E, n)
	for i := range pred {
		pred[i] = E(None)
	}
	seen := make([]bool, n)
	seen[src] = true
	queue := []V{src}
	for len(queue) > 0 && !seen[dst] {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.out[v] {
			if !g.live.Has(int(e)) || (avoid != nil && avoid(e)) {
				continue
			}
			to := g.head[e]
			if !seen[to] {
				seen[to] = true
				pred[to] = e
				queue = append(queue, to)
			}
		}
	}
	if !seen[dst] {
		return nil
	}
	var rev []V
	for v := dst; ; {
		rev = append(rev, v)
		if v == src {
			break
		}
		v = g.tail[pred[v]]
	}
	path := make([]V, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// Inf is the distance reported by Dijkstra for unreachable vertices.
const Inf = math.MaxInt64

type dijkstraItem struct {
	v    V
	dist int64
}

type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) Len() int            { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h dijkstraHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dijkstraHeap) Push(x interface{}) { *h = append(*h, x.(dijkstraItem)) }
func (h *dijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest paths over live edges using
// Edge.Weight as the length (weights must be non-negative). It returns the
// distance to every vertex (Inf if unreachable) and the predecessor edge on
// a shortest path (None for src and unreachable vertices). Ties are broken
// by lower edge id, making the returned tree deterministic.
func (g *Digraph) Dijkstra(src V) (dist []int64, pred []E) {
	n := len(g.names)
	dist = make([]int64, n)
	pred = make([]E, n)
	for i := range dist {
		dist[i] = Inf
		pred[i] = E(None)
	}
	if src < 0 || int(src) >= n {
		return dist, pred
	}
	dist[src] = 0
	h := &dijkstraHeap{{v: src, dist: 0}}
	done := make([]bool, n)
	w := g.w.get()
	for h.Len() > 0 {
		it := heap.Pop(h).(dijkstraItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, e := range g.out[it.v] {
			if !g.live.Has(int(e)) {
				continue
			}
			to, nd := g.head[e], it.dist+w[e]
			if nd < dist[to] || (nd == dist[to] && pred[to] != E(None) && e < pred[to]) {
				dist[to] = nd
				pred[to] = e
				heap.Push(h, dijkstraItem{v: to, dist: nd})
			}
		}
	}
	return dist, pred
}

// ShortestPath returns the vertices of a shortest src→dst path (inclusive),
// or nil if dst is unreachable.
func (g *Digraph) ShortestPath(src, dst V) []V {
	dist, pred := g.Dijkstra(src)
	if dst < 0 || int(dst) >= len(dist) || dist[dst] == Inf {
		return nil
	}
	var rev []V
	for v := dst; ; {
		rev = append(rev, v)
		if v == src {
			break
		}
		v = g.tail[pred[v]]
	}
	path := make([]V, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// ShortestPathUnique reports whether the shortest src→dst path is unique,
// along with the path itself. It is used by the PC4 verifier: traffic
// deterministically follows P only when P is the strictly-best path.
func (g *Digraph) ShortestPathUnique(src, dst V) (path []V, unique bool) {
	dist, _ := g.Dijkstra(src)
	if dst < 0 || int(dst) >= len(dist) || dist[dst] == Inf {
		return nil, false
	}
	// Count, for each vertex on some shortest path, the number of tight
	// incoming edges; >1 anywhere on a shortest path to dst means ambiguity.
	path = g.ShortestPath(src, dst)
	unique = true
	for _, v := range path {
		if v == src {
			continue
		}
		tight := 0
		g.In(v, func(_ E, ed Edge) {
			if dist[ed.From] != Inf && dist[ed.From]+ed.Weight == dist[v] {
				tight++
			}
		})
		if tight > 1 {
			unique = false
		}
	}
	return path, unique
}

// MaxFlow computes the maximum src→dst flow with per-edge capacities given
// by cap (nil means capacity 1 for every live edge) using Edmonds–Karp.
// It returns the flow value and the per-edge flow assignment.
func (g *Digraph) MaxFlow(src, dst V, capacity func(E) int64) (int64, []int64) {
	n := len(g.names)
	flow := make([]int64, len(g.tail))
	if src < 0 || dst < 0 || src == dst {
		return 0, flow
	}
	capOf := func(e E) int64 {
		if capacity == nil {
			return 1
		}
		return capacity(e)
	}
	var total int64
	for {
		// BFS on the residual graph.
		predEdge := make([]E, n)
		predDir := make([]int8, n) // +1 forward, -1 backward
		for i := range predEdge {
			predEdge[i] = E(None)
		}
		queue := []V{src}
		visited := make([]bool, n)
		visited[src] = true
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.out[v] {
				if !g.live.Has(int(e)) || flow[e] >= capOf(e) {
					continue
				}
				to := g.head[e]
				if !visited[to] {
					visited[to] = true
					predEdge[to] = e
					predDir[to] = 1
					if to == dst {
						found = true
						break bfs
					}
					queue = append(queue, to)
				}
			}
			for _, e := range g.in[v] {
				if !g.live.Has(int(e)) || flow[e] <= 0 {
					continue
				}
				from := g.tail[e]
				if !visited[from] {
					visited[from] = true
					predEdge[from] = e
					predDir[from] = -1
					if from == dst {
						found = true
						break bfs
					}
					queue = append(queue, from)
				}
			}
		}
		if !found {
			return total, flow
		}
		// Bottleneck along the augmenting path.
		bottleneck := int64(math.MaxInt64)
		for v := dst; v != src; {
			e := predEdge[v]
			if predDir[v] == 1 {
				if r := capOf(e) - flow[e]; r < bottleneck {
					bottleneck = r
				}
				v = g.tail[e]
			} else {
				if flow[e] < bottleneck {
					bottleneck = flow[e]
				}
				v = g.head[e]
			}
		}
		for v := dst; v != src; {
			e := predEdge[v]
			if predDir[v] == 1 {
				flow[e] += bottleneck
				v = g.tail[e]
			} else {
				flow[e] -= bottleneck
				v = g.head[e]
			}
		}
		total += bottleneck
	}
}

// MinCut returns the edges of a minimum src→dst cut under the given
// capacities (nil means unit capacities): the live edges that cross from
// the src-side of the residual graph to the dst-side after max-flow.
func (g *Digraph) MinCut(src, dst V, capacity func(E) int64) []E {
	_, flow := g.MaxFlow(src, dst, capacity)
	capOf := func(e E) int64 {
		if capacity == nil {
			return 1
		}
		return capacity(e)
	}
	// Vertices reachable from src in the residual graph.
	n := len(g.names)
	visited := make([]bool, n)
	if src >= 0 && int(src) < n {
		visited[src] = true
		stack := []V{src}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.out[v] {
				if !g.live.Has(int(e)) || flow[e] >= capOf(e) {
					continue
				}
				if to := g.head[e]; !visited[to] {
					visited[to] = true
					stack = append(stack, to)
				}
			}
			for _, e := range g.in[v] {
				if !g.live.Has(int(e)) || flow[e] <= 0 {
					continue
				}
				if from := g.tail[e]; !visited[from] {
					visited[from] = true
					stack = append(stack, from)
				}
			}
		}
	}
	var cut []E
	g.live.Each(func(e int) {
		if visited[g.tail[e]] && !visited[g.head[e]] && capOf(E(e)) > 0 {
			cut = append(cut, E(e))
		}
	})
	return cut
}

// DisjointPaths decomposes a max-flow into edge sequences: up to the flow
// value many src→dst paths, pairwise disjoint on edges that carry unit
// capacity. capacity semantics match MaxFlow.
func (g *Digraph) DisjointPaths(src, dst V, capacity func(E) int64) [][]V {
	total, flow := g.MaxFlow(src, dst, capacity)
	remaining := append([]int64(nil), flow...)
	var paths [][]V
	for i := int64(0); i < total; i++ {
		// Walk a unit of flow from src to dst.
		path := []V{src}
		v := src
		for v != dst {
			advanced := false
			for _, e := range g.out[v] {
				if !g.live.Has(int(e)) || remaining[e] <= 0 {
					continue
				}
				remaining[e]--
				v = g.head[e]
				path = append(path, v)
				advanced = true
				break
			}
			if !advanced {
				return paths // flow decomposition exhausted (shouldn't happen)
			}
		}
		paths = append(paths, path)
	}
	return paths
}
