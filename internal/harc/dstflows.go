package harc

import (
	"math/bits"
	"slices"

	"repro/internal/arc"
)

// DstFlows answers PC3 at k ≤ 2 for the classes toward one destination of
// a state from one post-dominator tree of the destination's row
// (arc.DstTree), built the first time a class asks. It answers a class
// whose row is clean — equal to its destination's row everywhere but at
// its own source attachments — and leaves every other class to a check of
// its own. A DstFlows serves one goroutine; Release hands its tree back.
type DstFlows struct {
	st   *State
	d    int
	tree *arc.DstTree
}

// NewDstFlows returns the flows of destination row d of st (nil: the
// HARC's own state), in st's layout.
func NewDstFlows(h *HARC, st *State, d int) DstFlows {
	if st == nil {
		st = h.rows
	}
	return DstFlows{st: st, d: d}
}

// Flow returns min(2, arc.LinkDisjointFlow) of class row r's tcETG, a class
// toward the destination; ok is false, and nothing is computed, when the
// class's row is not clean.
func (f *DstFlows) Flow(r int) (flow int, ok bool) {
	lay := f.st.lay
	row, dst, srcs := f.st.TC[r], f.st.Dst[f.d], lay.SrcSlots(r)
	for i := range row {
		for diff := row[i] ^ dst[i]; diff != 0; diff &= diff - 1 {
			if _, own := slices.BinarySearch(srcs, int32(i<<6+bits.TrailingZeros64(diff))); !own {
				return 0, false
			}
		}
	}
	if f.tree == nil {
		f.tree = arc.NewDstTree(lay.Table, dst)
	}
	return f.tree.Flow(row, srcs), true
}

// Release returns the tree, if one was built, to its pool.
func (f *DstFlows) Release() {
	if f.tree != nil {
		f.tree.Release()
		f.tree = nil
	}
}
