// Package graph provides the directed-graph substrate used by ARC and HARC:
// a compact digraph with named vertices and weighted edges, plus the
// algorithms Table 1 of the CPR paper needs (reachability, shortest paths,
// max-flow/min-cut, and edge-disjoint path extraction).
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// V identifies a vertex within a single Digraph.
type V int

// E identifies an edge within a single Digraph.
type E int

// None is returned by lookups that find no vertex or edge.
const None = -1

// Edge is a directed, weighted edge. Weight semantics are caller-defined
// (ETGs use routing costs; max-flow uses capacities supplied separately).
type Edge struct {
	From   V
	To     V
	Weight int64
}

// Digraph is a mutable directed multigraph with string-named vertices.
// The zero value is an empty graph ready to use. A graph carries no
// name→vertex index: graphs built by NewOver share one immutable vertex
// table with every other graph of the same network and address vertices
// by id; Vertex and AddVertex scan the table and exist for small
// hand-built graphs, tests and debugging.
type Digraph struct {
	names   []string
	edges   []Edge
	removed []bool // removed[e] marks edge e as deleted without reindexing
	out     [][]E
	in      [][]E
	nlive   int
}

// New returns an empty digraph.
func New() *Digraph { return &Digraph{} }

// NewOver returns a digraph over the shared vertex table names (vertex v
// is names[v]) holding exactly the given edges, edge e being edges[e].
// The table is not copied and must never change; the edge slice is
// adopted. Adjacency lists are carved out of two backing arrays sized
// from the edge list, so a build costs a fixed handful of allocations
// however many vertices it touches (ETG construction's hot path).
func NewOver(names []string, edges []Edge) *Digraph {
	nv, ne := len(names), len(edges)
	g := &Digraph{
		names:   names[:nv:nv],
		edges:   edges,
		removed: make([]bool, ne),
		out:     make([][]E, nv),
		in:      make([][]E, nv),
		nlive:   ne,
	}
	deg := make([]int32, 2*nv)
	for _, ed := range edges {
		deg[ed.From]++
		deg[nv+int(ed.To)]++
	}
	backing := make([]E, 2*ne)
	off := 0
	for v := 0; v < nv; v++ {
		d := int(deg[v])
		g.out[v] = backing[off : off : off+d]
		off += d
	}
	for v := 0; v < nv; v++ {
		d := int(deg[nv+v])
		g.in[v] = backing[off : off : off+d]
		off += d
	}
	for i, ed := range edges {
		g.out[ed.From] = append(g.out[ed.From], E(i))
		g.in[ed.To] = append(g.in[ed.To], E(i))
	}
	return g
}

// Clone returns a deep copy of g (the vertex table is immutable once
// shared, so the copy keeps the same one).
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		names:   g.names[:len(g.names):len(g.names)],
		edges:   append([]Edge(nil), g.edges...),
		removed: append([]bool(nil), g.removed...),
		out:     make([][]E, len(g.out)),
		in:      make([][]E, len(g.in)),
		nlive:   g.nlive,
	}
	for i := range g.out {
		c.out[i] = append([]E(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]E(nil), g.in[i]...)
	}
	return c
}

// CloneEdgesShared returns a copy that shares g's vertex and edge
// storage but owns its removal flags: RemoveEdge/RestoreEdge on the
// copy do not affect g, and all read operations work. The copy must
// not have vertices or edges added to it. Use this instead of Clone
// for transient what-if queries (e.g. reachability under failed links),
// which only toggle removal flags.
func (g *Digraph) CloneEdgesShared() *Digraph {
	c := *g
	c.removed = append([]bool(nil), g.removed...)
	return &c
}

// AddVertex adds a vertex named name, or returns the existing vertex with
// that name (a linear scan: see Digraph).
func (g *Digraph) AddVertex(name string) V {
	if v := g.Vertex(name); v != V(None) {
		return v
	}
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return V(len(g.names) - 1)
}

// Vertex returns the vertex named name, or None if absent.
func (g *Digraph) Vertex(name string) V {
	for v, n := range g.names {
		if n == name {
			return V(v)
		}
	}
	return V(None)
}

// HasVertex reports whether a vertex named name exists.
func (g *Digraph) HasVertex(name string) bool { return g.Vertex(name) != V(None) }

// Name returns the name of vertex v.
func (g *Digraph) Name(v V) string { return g.names[v] }

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return len(g.names) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Digraph) NumEdges() int { return g.nlive }

// AddEdge adds a directed edge from→to with the given weight and returns
// its id. Parallel edges are permitted.
func (g *Digraph) AddEdge(from, to V, weight int64) E {
	e := E(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight})
	g.removed = append(g.removed, false)
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.nlive++
	return e
}

// RemoveEdge marks edge e as removed. Removing an already-removed edge is
// a no-op.
func (g *Digraph) RemoveEdge(e E) {
	if !g.removed[e] {
		g.removed[e] = true
		g.nlive--
	}
}

// RestoreEdge undoes RemoveEdge.
func (g *Digraph) RestoreEdge(e E) {
	if g.removed[e] {
		g.removed[e] = false
		g.nlive++
	}
}

// EdgeLive reports whether edge e is present (not removed).
func (g *Digraph) EdgeLive(e E) bool { return !g.removed[e] }

// Edge returns the endpoints and weight of edge e (live or removed).
func (g *Digraph) Edge(e E) Edge { return g.edges[e] }

// SetWeight updates the weight of edge e.
func (g *Digraph) SetWeight(e E, w int64) { g.edges[e].Weight = w }

// FindEdge returns the id of a live edge from→to, or None.
func (g *Digraph) FindEdge(from, to V) E {
	for _, e := range g.out[from] {
		if !g.removed[e] && g.edges[e].To == to {
			return e
		}
	}
	return E(None)
}

// Out calls fn for each live out-edge of v.
func (g *Digraph) Out(v V, fn func(e E, edge Edge)) {
	for _, e := range g.out[v] {
		if !g.removed[e] {
			fn(e, g.edges[e])
		}
	}
}

// In calls fn for each live in-edge of v.
func (g *Digraph) In(v V, fn func(e E, edge Edge)) {
	for _, e := range g.in[v] {
		if !g.removed[e] {
			fn(e, g.edges[e])
		}
	}
}

// Edges calls fn for each live edge.
func (g *Digraph) Edges(fn func(e E, edge Edge)) {
	for i := range g.edges {
		if !g.removed[i] {
			fn(E(i), g.edges[i])
		}
	}
}

// String renders the graph as "name -> name (w)" lines, sorted, for tests
// and debugging.
func (g *Digraph) String() string {
	var lines []string
	g.Edges(func(_ E, ed Edge) {
		lines = append(lines, fmt.Sprintf("%s -> %s (%d)", g.names[ed.From], g.names[ed.To], ed.Weight))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
