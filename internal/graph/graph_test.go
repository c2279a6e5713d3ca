package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) (*Digraph, V, V, V, V) {
	t.Helper()
	const a, b, c, d V = 0, 1, 2, 3
	g := NewOver([]string{"a", "b", "c", "d"}, []Edge{{a, b, 1}, {a, c, 4}, {b, d, 1}, {c, d, 1}})
	return g, a, b, c, d
}

func TestVertexLookup(t *testing.T) {
	g := NewOver([]string{"x"}, nil)
	if g.Vertex("x") == V(None) {
		t.Error("Vertex(x) not found")
	}
	if g.Vertex("y") != V(None) {
		t.Error("Vertex(y) should be None")
	}
	if !g.HasVertex("x") || g.HasVertex("y") {
		t.Error("HasVertex wrong")
	}
}

func TestRemoveEdge(t *testing.T) {
	g, a, b, _, _ := buildDiamond(t)
	e := g.FindEdge(a, b)
	if e == E(None) {
		t.Fatal("edge a->b not found")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	g.RemoveEdge(e)
	if g.NumEdges() != 3 || g.EdgeLive(e) || g.FindEdge(a, b) != E(None) {
		t.Fatal("RemoveEdge did not take effect")
	}
	g.RemoveEdge(e) // idempotent
	if g.NumEdges() != 3 {
		t.Fatal("double RemoveEdge changed count")
	}
}

func TestPathExists(t *testing.T) {
	g, a, b, c, d := buildDiamond(t)
	if !g.PathExists(a, d) {
		t.Error("a should reach d")
	}
	if g.PathExists(d, a) {
		t.Error("d should not reach a")
	}
	g.RemoveEdge(g.FindEdge(b, d))
	if !g.PathExists(a, d) {
		t.Error("a should still reach d via c")
	}
	g.RemoveEdge(g.FindEdge(c, d))
	if g.PathExists(a, d) {
		t.Error("a should no longer reach d")
	}
}

func TestPathExistsAvoiding(t *testing.T) {
	g, a, b, _, d := buildDiamond(t)
	viaB := g.FindEdge(a, b)
	if !g.PathExistsAvoiding(a, d, func(e E) bool { return e == viaB }) {
		t.Error("should reach d avoiding a->b")
	}
	bd := g.FindEdge(b, d)
	cd := g.FindEdge(g.Vertex("c"), d)
	if g.PathExistsAvoiding(a, d, func(e E) bool { return e == bd || e == cd }) {
		t.Error("should not reach d avoiding both final hops")
	}
}

// reachable is the reference PathExists replaced: a sweep that marks
// every vertex reachable from src along live edges (those for which fn,
// if non-nil, returns true) in a fresh slice.
func reachable(g *Digraph, src V, fn func(E) bool) []bool {
	seen := make([]bool, len(g.names))
	seen[src] = true
	stack := []V{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[v] {
			if !g.live.Has(int(e)) || (fn != nil && !fn(e)) {
				continue
			}
			if to := g.head[e]; !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

// TestPathExistsMatchesReachable holds the early-stopping search to the
// full reachability sweep on every vertex pair of random graphs with
// removed edges, with and without an edge filter, through one scratch that
// moves between graphs of different sizes.
func TestPathExistsMatchesReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := new(reachScratch)
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 1+rng.Intn(12))
		for e := E(0); int(e) < len(g.tail); e++ {
			if rng.Intn(3) == 0 {
				g.RemoveEdge(e)
			}
		}
		odd := func(e E) bool { return e%2 == 1 }
		for src := V(0); src < V(g.NumVertices()); src++ {
			all := reachable(g, src, nil)
			even := reachable(g, src, func(e E) bool { return !odd(e) })
			for dst := V(0); dst < V(g.NumVertices()); dst++ {
				if got := g.PathExists(src, dst); got != all[dst] {
					t.Fatalf("trial %d: PathExists(%d, %d) = %v, the full sweep says %v\n%s", trial, src, dst, got, all[dst], g)
				}
				if got := f.pathExists(g, src, dst, odd); got != even[dst] {
					t.Fatalf("trial %d: avoiding odd edges, %d reaches %d = %v, the full sweep says %v\n%s", trial, src, dst, got, even[dst], g)
				}
			}
		}
	}
	g, a, _, _, _ := buildDiamond(t)
	for _, bad := range [][2]V{{V(None), a}, {a, V(None)}, {a, 4}, {4, a}} {
		if g.PathExists(bad[0], bad[1]) {
			t.Errorf("PathExists(%d, %d) on a 4-vertex graph = true, want false", bad[0], bad[1])
		}
	}
}

// TestPathExistsAllocs pins that a steady-state search allocates nothing,
// with a filter that captures its surroundings as the PC2 check's does.
func TestPathExistsAllocs(t *testing.T) {
	g, a, b, _, d := buildDiamond(t)
	viaB := g.FindEdge(a, b)
	f := new(reachScratch)
	f.pathExists(g, a, d, nil)
	if allocs := testing.AllocsPerRun(100, func() { f.pathExists(g, a, d, nil) }); allocs != 0 {
		t.Errorf("a steady-state PathExists allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		f.pathExists(g, a, d, func(e E) bool { return e == viaB })
	}); allocs != 0 {
		t.Errorf("a steady-state PathExistsAvoiding allocates %.0f times, want 0", allocs)
	}
}

// TestPathExistsStampWrap runs searches across the wrap of the scratch's
// stamp counter: marks left from before the wrap must not read as
// reached.
func TestPathExistsStampWrap(t *testing.T) {
	g, a, b, c, d := buildDiamond(t)
	f := new(reachScratch)
	f.pathExists(g, a, d, nil) // marks b and c (and sizes the scratch)
	f.stamp = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		if !f.pathExists(g, a, d, nil) || f.pathExists(g, b, c, nil) || f.pathExists(g, d, a, nil) {
			t.Fatalf("search %d around the wrap (stamp %d) gave a wrong answer", i, f.stamp)
		}
	}
}

func TestPathAvoiding(t *testing.T) {
	g, a, b, c, d := buildDiamond(t)
	path := g.PathAvoiding(a, d, nil)
	if path == nil || path[0] != a || path[len(path)-1] != d {
		t.Fatalf("PathAvoiding = %v", path)
	}
	viaB := g.FindEdge(a, b)
	path = g.PathAvoiding(a, d, func(e E) bool { return e == viaB })
	if path == nil {
		t.Fatal("should find path via c")
	}
	if len(path) != 3 || path[1] != c {
		t.Errorf("path = %v, want a,c,d", path)
	}
	bd, cd := g.FindEdge(b, d), g.FindEdge(c, d)
	if p := g.PathAvoiding(a, d, func(e E) bool { return e == bd || e == cd }); p != nil {
		t.Errorf("no path should exist, got %v", p)
	}
	if p := g.PathAvoiding(V(None), d, nil); p != nil {
		t.Errorf("invalid src should give nil, got %v", p)
	}
	if p := g.PathAvoiding(a, a, nil); len(p) != 1 || p[0] != a {
		t.Errorf("self path = %v, want [a]", p)
	}
}

func TestDijkstraShortestPath(t *testing.T) {
	g, a, _, _, d := buildDiamond(t)
	dist, _ := g.Dijkstra(a)
	if dist[d] != 2 {
		t.Fatalf("dist[d] = %d, want 2", dist[d])
	}
	path := g.ShortestPath(a, d)
	want := []string{"a", "b", "d"}
	if len(path) != len(want) {
		t.Fatalf("path length %d, want %d", len(path), len(want))
	}
	for i, v := range path {
		if g.Name(v) != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, g.Name(v), want[i])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	const a, b V = 0, 1
	g := NewOver([]string{"a", "b"}, nil)
	dist, pred := g.Dijkstra(a)
	if dist[b] != Inf {
		t.Errorf("dist[b] = %d, want Inf", dist[b])
	}
	if pred[b] != E(None) {
		t.Errorf("pred[b] = %d, want None", pred[b])
	}
	if g.ShortestPath(a, b) != nil {
		t.Error("ShortestPath to unreachable vertex should be nil")
	}
}

func TestShortestPathUnique(t *testing.T) {
	const a, b, c, d V = 0, 1, 2, 3
	build := func(ac int64) *Digraph {
		return NewOver([]string{"a", "b", "c", "d"}, []Edge{{a, b, 1}, {b, d, 1}, {a, c, ac}, {c, d, 1}})
	}
	if _, unique := build(1).ShortestPathUnique(a, d); unique {
		t.Error("two equal-cost paths should not be unique")
	}
	g := build(2)
	path, unique := g.ShortestPathUnique(a, d)
	if !unique {
		t.Error("single best path should be unique")
	}
	if len(path) != 3 || g.Name(path[1]) != "b" {
		t.Errorf("unexpected path %v", path)
	}
}

func TestMaxFlowDiamond(t *testing.T) {
	g, a, _, _, d := buildDiamond(t)
	flow, _ := g.MaxFlow(a, d, nil)
	if flow != 2 {
		t.Fatalf("max-flow = %d, want 2", flow)
	}
}

func TestMaxFlowWithCapacities(t *testing.T) {
	const s, m, tv V = 0, 1, 2
	const e1, e2 E = 0, 1
	g := NewOver([]string{"s", "m", "t"}, []Edge{{s, m, 0}, {m, tv, 0}})
	caps := map[E]int64{e1: 3, e2: 5}
	flow, _ := g.MaxFlow(s, tv, func(e E) int64 { return caps[e] })
	if flow != 3 {
		t.Fatalf("max-flow = %d, want 3", flow)
	}
}

func TestMaxFlowNeedsResidual(t *testing.T) {
	// Classic example where a greedy path must be partially undone.
	const s, a, b, tv V = 0, 1, 2, 3
	g := NewOver([]string{"s", "a", "b", "t"}, []Edge{{s, a, 0}, {s, b, 0}, {a, b, 0}, {a, tv, 0}, {b, tv, 0}})
	flow, _ := g.MaxFlow(s, tv, nil)
	if flow != 2 {
		t.Fatalf("max-flow = %d, want 2", flow)
	}
}

func TestMinCut(t *testing.T) {
	g, a, _, _, d := buildDiamond(t)
	cut := g.MinCut(a, d, nil)
	if len(cut) != 2 {
		t.Fatalf("min-cut size %d, want 2", len(cut))
	}
	for _, e := range cut {
		g.RemoveEdge(e)
	}
	if g.PathExists(a, d) {
		t.Error("removing the min-cut should disconnect a from d")
	}
}

func TestDisjointPaths(t *testing.T) {
	g, a, _, _, d := buildDiamond(t)
	paths := g.DisjointPaths(a, d, nil)
	if len(paths) != 2 {
		t.Fatalf("got %d disjoint paths, want 2", len(paths))
	}
	used := map[[2]V]bool{}
	for _, p := range paths {
		if p[0] != a || p[len(p)-1] != d {
			t.Errorf("path endpoints wrong: %v", p)
		}
		for i := 0; i+1 < len(p); i++ {
			key := [2]V{p[i], p[i+1]}
			if used[key] {
				t.Errorf("edge %v reused across paths", key)
			}
			used[key] = true
		}
	}
}

// TestClone: a view with no mask of its own starts as a copy of the
// graph it views and diverges, privately, at its first edge removal.
func TestClone(t *testing.T) {
	g, a, b, _, d := buildDiamond(t)
	c := g.View(nil, nil)
	c.RemoveEdge(c.FindEdge(a, b))
	if g.NumEdges() != 4 {
		t.Error("mutating clone affected original")
	}
	if c.NumEdges() != 3 {
		t.Error("clone edge removal failed")
	}
	if !g.PathExists(a, d) {
		t.Error("original should be unaffected")
	}
}

// randomGraph builds a pseudo-random DAG-ish digraph for property tests.
func randomGraph(r *rand.Rand, n int) *Digraph {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Intn(3) == 0 {
				edges = append(edges, Edge{V(i), V(j), int64(1 + r.Intn(9))})
			}
		}
	}
	return NewOver(names, edges)
}

// Property: max-flow value equals min-cut size under unit capacities,
// and removing the cut disconnects src from dst.
func TestMaxFlowMinCutDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		g := randomGraph(r, n)
		src, dst := V(0), V(n-1)
		flow, _ := g.MaxFlow(src, dst, nil)
		cut := g.MinCut(src, dst, nil)
		if int64(len(cut)) != flow {
			return false
		}
		for _, e := range cut {
			g.RemoveEdge(e)
		}
		return !g.PathExists(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Dijkstra distances obey the triangle inequality over every live
// edge, and each pred edge is tight.
func TestDijkstraRelaxationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := randomGraph(r, n)
		dist, pred := g.Dijkstra(0)
		ok := true
		g.Edges(func(_ E, ed Edge) {
			if dist[ed.From] != Inf && dist[ed.From]+ed.Weight < dist[ed.To] {
				ok = false
			}
		})
		for v := 1; v < n; v++ {
			if dist[v] != Inf && pred[v] != E(None) {
				ed := g.Edge(pred[v])
				if dist[ed.From]+ed.Weight != dist[v] {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: number of disjoint paths equals the max-flow value, and the
// paths are pairwise edge-disjoint.
func TestDisjointPathsMatchFlow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(7)
		g := randomGraph(r, n)
		src, dst := V(0), V(n-1)
		flow, _ := g.MaxFlow(src, dst, nil)
		paths := g.DisjointPaths(src, dst, nil)
		if int64(len(paths)) != flow {
			return false
		}
		type edgeKey struct{ a, b V }
		seen := map[edgeKey]int{}
		for _, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				seen[edgeKey{p[i], p[i+1]}]++
			}
		}
		// Each directed vertex-pair may be reused only as often as there are
		// parallel edges; with random simple graphs this means at most once.
		for _, count := range seen {
			if count > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
