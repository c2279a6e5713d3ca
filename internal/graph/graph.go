// Package graph provides the directed-graph substrate used by ARC and HARC:
// a compact digraph with named vertices and weighted edges, plus the
// algorithms Table 1 of the CPR paper needs (reachability, shortest paths,
// max-flow/min-cut, and edge-disjoint path extraction).
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bitset"
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

// shape is the part of a graph its views share and never write: the
// vertex table, every edge's endpoints, and the adjacency lists (edge ids
// in ascending order per vertex).
type shape struct {
	names      []string
	tail, head []V
	out, in    [][]E
}

// Weights is an edge-weight vector by edge id that may be filled on first
// read, so that the many views of one base graph that are only ever asked
// about connectivity never pay for it, and the views that share a
// weighting compute it once. Safe for concurrent readers.
type Weights struct {
	once sync.Once
	fill func() []int64
	vec  []int64
}

// LazyWeights returns a weight vector that fill produces on first read.
func LazyWeights(fill func() []int64) *Weights { return &Weights{fill: fill} }

func (w *Weights) get() []int64 {
	w.once.Do(func() {
		if w.fill != nil {
			w.vec, w.fill = w.fill(), nil
		}
	})
	return w.vec
}

// Digraph is a directed multigraph with string-named vertices: a shape,
// a mask of the edges that are live, and a weight per edge. The zero value
// is not usable; NewOver returns a graph laid over a shared vertex table,
// and View a graph that shares another's shape under its own mask and
// weights.
//
// A graph carries no name→vertex index: vertices are addressed by id;
// Vertex scans the table and exists for tests and debugging.
type Digraph struct {
	*shape
	// live is shared with whoever supplied it until the first RemoveEdge,
	// which copies it (ownsLive): a view never writes storage it was
	// handed.
	live     bitset.Set
	ownsLive bool
	w        *Weights
}

// NewOver returns a digraph over the shared vertex table names (vertex v
// is names[v]) holding exactly the given edges, all live, edge e being
// edges[e]. The table is not copied and must never change. Adjacency
// lists are carved out of two backing arrays sized from the edge list, so
// a build costs a fixed handful of allocations however many vertices it
// touches. The result is meant to be the base of many Views.
func NewOver(names []string, edges []Edge) *Digraph {
	nv, ne := len(names), len(edges)
	sh := &shape{
		names: names[:nv:nv],
		tail:  make([]V, ne),
		head:  make([]V, ne),
		out:   make([][]E, nv),
		in:    make([][]E, nv),
	}
	weights := make([]int64, ne)
	live := bitset.New(ne)
	deg := make([]int32, 2*nv)
	for i, ed := range edges {
		sh.tail[i], sh.head[i], weights[i] = ed.From, ed.To, ed.Weight
		live.Put(i, true)
		deg[ed.From]++
		deg[nv+int(ed.To)]++
	}
	backing := make([]E, 2*ne)
	off := 0
	for v := 0; v < nv; v++ {
		d := int(deg[v])
		sh.out[v] = backing[off : off : off+d]
		off += d
	}
	for v := 0; v < nv; v++ {
		d := int(deg[nv+v])
		sh.in[v] = backing[off : off : off+d]
		off += d
	}
	for i, ed := range edges {
		sh.out[ed.From] = append(sh.out[ed.From], E(i))
		sh.in[ed.To] = append(sh.in[ed.To], E(i))
	}
	return &Digraph{shape: sh, live: live, ownsLive: true, w: &Weights{vec: weights}}
}

// View returns a graph over g's vertices, endpoints and adjacency whose
// live edges are exactly the set bits of live (nil: g's own mask) and
// whose weights are w (nil: g's own). Nothing is copied: the view reads
// live and never writes it — RemoveEdge on the view works on a private
// copy made at the first call — so any number of views may share one mask
// with each other and with its owner, who must not change it while they
// are in use. Edge ids, and therefore traversal order, are g's.
func (g *Digraph) View(live bitset.Set, w *Weights) *Digraph {
	if live == nil {
		live = g.live
	}
	if w == nil {
		w = g.w
	}
	return &Digraph{shape: g.shape, live: live, w: w}
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
func (g *Digraph) NumEdges() int { return g.live.Count() }

// RemoveEdge marks edge e as removed, first making the mask private if
// it was handed in. Removing an already-removed edge is a no-op.
func (g *Digraph) RemoveEdge(e E) {
	if !g.ownsLive {
		g.live, g.ownsLive = g.live.Clone(), true
	}
	g.live.Put(int(e), false)
}

// EdgeLive reports whether edge e is present (not removed).
func (g *Digraph) EdgeLive(e E) bool { return g.live.Has(int(e)) }

// Live returns the mask of live edges by edge id, for reading only.
func (g *Digraph) Live() bitset.Set { return g.live }

// Edge returns the endpoints and weight of edge e (live or removed).
func (g *Digraph) Edge(e E) Edge {
	return Edge{From: g.tail[e], To: g.head[e], Weight: g.w.get()[e]}
}

// FindEdge returns the id of a live edge from→to, or None.
func (g *Digraph) FindEdge(from, to V) E {
	for _, e := range g.out[from] {
		if g.live.Has(int(e)) && g.head[e] == to {
			return e
		}
	}
	return E(None)
}

// Out calls fn for each live out-edge of v.
func (g *Digraph) Out(v V, fn func(e E, edge Edge)) { g.each(g.out[v], fn) }

// In calls fn for each live in-edge of v.
func (g *Digraph) In(v V, fn func(e E, edge Edge)) { g.each(g.in[v], fn) }

// each calls fn for the live edges among ids, in list order. It reads the
// weights, so the connectivity algorithms walk the adjacency themselves.
func (g *Digraph) each(ids []E, fn func(e E, edge Edge)) {
	w := g.w.get()
	for _, e := range ids {
		if g.live.Has(int(e)) {
			fn(e, Edge{From: g.tail[e], To: g.head[e], Weight: w[e]})
		}
	}
}

// Edges calls fn for each live edge.
func (g *Digraph) Edges(fn func(e E, edge Edge)) {
	w := g.w.get()
	g.live.Each(func(e int) {
		fn(E(e), Edge{From: g.tail[e], To: g.head[e], Weight: w[e]})
	})
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
