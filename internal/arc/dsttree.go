package arc

import (
	"sync"

	"repro/internal/bitset"
)

// PC3 at k ≤ 2 needs no flow per class. Take the auxiliary network of
// kflow.go over a destination's row: a class whose row is that row plus
// its own source attachments has that network plus its SRC arcs. At k ≤ 2
// every arc but a link bottleneck has capacity ≥ k, so a cut of capacity
// below 2 is either empty or one bottleneck in(l)→out(l) — and since the
// bottleneck is the only arc leaving in(l), removing it disconnects the
// class iff in(l) lies on every SRC→DST path. By Menger, then, min(2, flow)
// is 0 when no SRC head reaches DST, 1 when some link's in-vertex lies on
// every path from the heads to DST, and 2 otherwise.
//
// "Lies on every path to DST" is post-dominance: the dominator tree of the
// reversed network rooted at DST holds it for every vertex at once. The
// in-vertices on every path from a set of heads are the in-vertices among
// the ancestors of the heads' nearest common ancestor, so one tree per
// destination answers every such class with a walk up the tree; each tree
// vertex carries whether an in-vertex is among its ancestors (itself
// included). The tree is built by Semi-NCA: one depth-first search, the
// semidominators by Lengauer–Tarjan's path-compressed evaluation, then
// each immediate dominator as the nearest common ancestor of the vertex's
// tree parent and its semidominator.

// DstTree is the post-dominator tree of the flow network over one live
// mask, in scratch pooled like the flow's: a steady-state tree allocates
// nothing. Vertices are numbered 1..n in the order the search from DST
// reached them; 0 is "does not reach DST".
type DstTree struct {
	sh   *flowShape
	tab  *Table
	live bitset.Set

	num []int32 // by vertex: its number, 0 when it does not reach DST

	// By number. Each phase of the build reuses what the last left dead:
	// the search keeps its arc cursors in semi, the evaluation its paths in
	// stack, and idom is label once the semidominators are known.
	vert   []int32 // the vertex
	parent []int32 // its parent in the search tree
	semi   []int32 // its semidominator
	anc    []int32 // its ancestor in the evaluation forest, 0 at a forest root
	label  []int32 // the vertex of least semidominator on its compressed path
	idom   []int32 // its immediate post-dominator
	bneck  []bool  // whether a link's in-vertex is among its ancestors or it

	stack []int32
}

var treePool = sync.Pool{New: func() any { return new(DstTree) }}

// NewDstTree builds the tree of t's flow network over the live mask (by
// slot id): a destination's row. It reads live in place until Release.
func NewDstTree(t *Table, live bitset.Set) *DstTree {
	d := treePool.Get().(*DstTree)
	d.build(t, live)
	return d
}

// Release returns the tree's scratch to the pool; the tree must not be
// used afterwards.
func (d *DstTree) Release() {
	d.sh, d.tab, d.live = nil, nil, nil
	treePool.Put(d)
}

// arcLive reports whether forward arc id has capacity: a bottleneck
// always, a slot's arc iff the slot is live.
func (d *DstTree) arcLive(id int32) bool {
	slot := d.sh.pairSlot[id>>1]
	return slot < 0 || d.live.Has(int(slot))
}

func (d *DstTree) build(t *Table, live bitset.Set) {
	d.sh, d.tab, d.live = t.flowShape(), t, live
	sh := d.sh
	nVert := len(sh.adjOff) - 1
	d.num = grow(d.num, nVert)
	clear(d.num)
	for _, s := range []*[]int32{&d.vert, &d.parent, &d.semi, &d.anc, &d.label, &d.stack} {
		*s = grow(*s, nVert+1)
	}
	if cap(d.bneck) < nVert+1 {
		d.bneck = make([]bool, nVert+1)
	}
	d.bneck = d.bneck[:nVert+1]

	// Depth-first from DST against live arcs: the arcs entering v are the
	// partners (odd ids) listed at v.
	n := int32(1)
	d.num[VDst], d.vert[1], d.parent[1] = 1, int32(VDst), 0
	stack := append(d.stack[:0], int32(VDst))
	cursor := append(d.semi[:0], sh.adjOff[VDst])
	for len(stack) > 0 {
		top := len(stack) - 1
		v, end := stack[top], sh.adjOff[stack[top]+1]
		i := cursor[top]
		for ; i < end; i++ {
			id := sh.adjList[i]
			if u := sh.head[id]; id&1 != 0 && d.num[u] == 0 && d.arcLive(id^1) {
				break
			}
		}
		if i == end {
			stack, cursor = stack[:top], cursor[:top]
			continue
		}
		cursor[top] = i + 1
		u := sh.head[sh.adjList[i]]
		n++
		d.num[u], d.vert[n], d.parent[n] = n, u, d.num[v]
		stack, cursor = append(stack, u), append(cursor, sh.adjOff[u])
	}

	// Semidominators, latest-reached first. The predecessors of w in the
	// reversed network are its successors over live forward arcs.
	for w := int32(1); w <= n; w++ {
		d.semi[w], d.label[w], d.anc[w] = w, w, 0
	}
	for w := n; w >= 2; w-- {
		for _, id := range sh.out(d.vert[w]) {
			if id&1 != 0 || !d.arcLive(id) {
				continue
			}
			if v := d.num[sh.head[id]]; v != 0 {
				if s := d.semi[d.eval(v)]; s < d.semi[w] {
					d.semi[w] = s
				}
			}
		}
		d.anc[w] = d.parent[w]
	}

	// Immediate dominators in search order, each from its parent's chain,
	// and the bottleneck bit down the tree.
	d.idom = d.label
	d.idom[1], d.bneck[1] = 0, false
	for w := int32(2); w <= n; w++ {
		x := d.parent[w]
		for x > d.semi[w] {
			x = d.idom[x]
		}
		d.idom[w] = x
		d.bneck[w] = d.bneck[x] || d.linkIn(d.vert[w])
	}
}

// linkIn reports whether vertex v is a link's in-vertex.
func (d *DstTree) linkIn(v int32) bool {
	nv := int32(len(d.tab.Vertices))
	return v >= nv && (v-nv)&1 == 0
}

// eval returns the vertex of least semidominator on v's path in the
// evaluation forest, compressing the path on the way.
func (d *DstTree) eval(v int32) int32 {
	if d.anc[v] == 0 {
		return v
	}
	path := d.stack[:0]
	for x := v; d.anc[d.anc[x]] != 0; x = d.anc[x] {
		path = append(path, x)
	}
	for i := len(path) - 1; i >= 0; i-- {
		x := path[i]
		a := d.anc[x]
		if d.semi[d.label[a]] < d.semi[d.label[x]] {
			d.label[x] = d.label[a]
		}
		d.anc[x] = d.anc[a]
	}
	return d.label[v]
}

// Flow returns min(2, LinkDisjointFlow) of the class whose live mask is row
// and whose source attachments are the slots sources lists. The row must
// equal the tree's mask everywhere but at those slots.
func (d *DstTree) Flow(row bitset.Set, sources []int32) int {
	lca := int32(0)
	for _, id := range sources {
		if !row.Has(int(id)) {
			continue
		}
		h := d.num[d.tab.Slots[id].To]
		switch {
		case h == 0:
		case lca == 0:
			lca = h
		default:
			for lca != h {
				for lca > h {
					lca = d.idom[lca]
				}
				for h > lca {
					h = d.idom[h]
				}
			}
		}
	}
	switch {
	case lca == 0:
		return 0
	case d.bneck[lca]:
		return 1
	}
	return 2
}
