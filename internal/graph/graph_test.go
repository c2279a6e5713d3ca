package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) (*Digraph, V, V, V, V) {
	t.Helper()
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddVertex("d")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, c, 4)
	g.AddEdge(b, d, 1)
	g.AddEdge(c, d, 1)
	return g, a, b, c, d
}

func TestAddVertexIdempotent(t *testing.T) {
	g := New()
	v1 := g.AddVertex("x")
	v2 := g.AddVertex("x")
	if v1 != v2 {
		t.Fatalf("AddVertex not idempotent: %d vs %d", v1, v2)
	}
	if g.NumVertices() != 1 {
		t.Fatalf("NumVertices = %d, want 1", g.NumVertices())
	}
}

func TestVertexLookup(t *testing.T) {
	g := New()
	g.AddVertex("x")
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

func TestEdgeAddRemoveRestore(t *testing.T) {
	g, a, b, _, _ := buildDiamond(t)
	e := g.FindEdge(a, b)
	if e == E(None) {
		t.Fatal("edge a->b not found")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	g.RemoveEdge(e)
	if g.NumEdges() != 3 || g.EdgeLive(e) {
		t.Fatal("RemoveEdge did not take effect")
	}
	g.RemoveEdge(e) // idempotent
	if g.NumEdges() != 3 {
		t.Fatal("double RemoveEdge changed count")
	}
	g.RestoreEdge(e)
	if g.NumEdges() != 4 || !g.EdgeLive(e) {
		t.Fatal("RestoreEdge did not take effect")
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
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
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
	var a, d V
	build := func(ac int64) *Digraph {
		g := New()
		a = g.AddVertex("a")
		b := g.AddVertex("b")
		c := g.AddVertex("c")
		d = g.AddVertex("d")
		g.AddEdge(a, b, 1)
		g.AddEdge(b, d, 1)
		g.AddEdge(a, c, ac)
		g.AddEdge(c, d, 1)
		return g
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
	g := New()
	s := g.AddVertex("s")
	m := g.AddVertex("m")
	tv := g.AddVertex("t")
	e1 := g.AddEdge(s, m, 0)
	e2 := g.AddEdge(m, tv, 0)
	caps := map[E]int64{e1: 3, e2: 5}
	flow, _ := g.MaxFlow(s, tv, func(e E) int64 { return caps[e] })
	if flow != 3 {
		t.Fatalf("max-flow = %d, want 3", flow)
	}
}

func TestMaxFlowNeedsResidual(t *testing.T) {
	// Classic example where a greedy path must be partially undone.
	g := New()
	s := g.AddVertex("s")
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	tv := g.AddVertex("t")
	g.AddEdge(s, a, 0)
	g.AddEdge(s, b, 0)
	g.AddEdge(a, b, 0)
	g.AddEdge(a, tv, 0)
	g.AddEdge(b, tv, 0)
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
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Intn(3) == 0 {
				g.AddEdge(V(i), V(j), int64(1+r.Intn(9)))
			}
		}
	}
	return g
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
