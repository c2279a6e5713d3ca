package sat

import (
	"math"
	"math/bits"
	"slices"
)

// Clause storage: all non-binary clauses live in one contiguous []uint32
// arena and are identified by the index of their header word (a "cref").
// The layout per clause is
//
//	[header] [activity]? [lit0] [lit1] ... [litN-1]
//
// where the activity word (a float32 bit pattern) is present only for
// learned clauses. The header packs the clause size, the learned and
// deleted flags, and the LBD (literal block distance) quality score:
//
//	bits  0..17  size (number of literals, ≤ 262143)
//	bit   18     learned
//	bit   19     deleted (storage reclaimed by the next arena GC)
//	bits 20..31  LBD, saturated at 4095 (0 for problem clauses)
//
// Binary clauses never enter the arena: they are specialized into the
// per-literal implication lists (Solver.bins, see lists below) and
// referenced through tagged reasons, so neither storing nor propagating
// them touches the arena. Unit clauses become level-0 trail entries.
//
// Reason/conflict references share the cref space via tagging:
//
//	refUndef            no reason (decision or level-0 fact)
//	refBinConfl         conflict in a binary clause; lits in Solver.binConfl
//	refBinFlag | lit    binary reason: the clause {implied, Lit(lit)}
//	anything else       arena cref (< 2^31)
const (
	hdrSizeMask uint32 = 1<<18 - 1
	hdrLearned  uint32 = 1 << 18
	hdrDeleted  uint32 = 1 << 19
	hdrLBDShift        = 20
	hdrLBDMax   uint32 = 1<<12 - 1

	refUndef    uint32 = math.MaxUint32
	refBinConfl uint32 = math.MaxUint32 - 1
	refBinFlag  uint32 = 1 << 31

	// maxArenaWords bounds crefs below the refBinFlag tag space.
	maxArenaWords = 1 << 31
)

// isBinRef reports whether a reason reference is a tagged binary reason.
func isBinRef(ref uint32) bool { return ref&refBinFlag != 0 && ref != refUndef && ref != refBinConfl }

// binRefOther extracts the other literal of a tagged binary reason.
func binRefOther(ref uint32) Lit { return Lit(ref &^ refBinFlag) }

// mkBinRef tags a binary reason: the reason clause of an implied literal
// q is {q, other}.
func mkBinRef(other Lit) uint32 { return refBinFlag | uint32(other) }

// litBase returns the arena index of the clause's first literal.
func litBase(ref uint32, hdr uint32) uint32 {
	base := ref + 1
	if hdr&hdrLearned != 0 {
		base++
	}
	return base
}

// clauseWords returns the total arena footprint of the clause.
func clauseWords(hdr uint32) uint32 {
	n := 1 + hdr&hdrSizeMask
	if hdr&hdrLearned != 0 {
		n++
	}
	return n
}

// lits returns the clause's literal words (callers convert with Lit()).
// The slice aliases the arena; it is invalidated by AddClause, clause
// learning, and arena GC.
func (s *Solver) lits(ref uint32) []uint32 {
	hdr := s.arena[ref]
	base := litBase(ref, hdr)
	return s.arena[base : base+hdr&hdrSizeMask]
}

// clauseLBD reads the header LBD field.
func (s *Solver) clauseLBD(ref uint32) uint32 { return s.arena[ref] >> hdrLBDShift }

// setClauseLBD overwrites the header LBD field (saturating).
func (s *Solver) setClauseLBD(ref uint32, lbd uint32) {
	if lbd > hdrLBDMax {
		lbd = hdrLBDMax
	}
	s.arena[ref] = s.arena[ref]&(hdrSizeMask|hdrLearned|hdrDeleted) | lbd<<hdrLBDShift
}

// clauseAct reads a learned clause's activity.
func (s *Solver) clauseAct(ref uint32) float32 {
	return math.Float32frombits(s.arena[ref+1])
}

// setClauseAct writes a learned clause's activity.
func (s *Solver) setClauseAct(ref uint32, act float32) {
	s.arena[ref+1] = math.Float32bits(act)
}

// deleted reports whether the clause's storage is awaiting GC.
func (s *Solver) deleted(ref uint32) bool { return s.arena[ref]&hdrDeleted != 0 }

// newClause appends a clause (≥ 3 literals) to the arena and registers
// its watchers. Learned clauses carry an activity slot and LBD.
func (s *Solver) newClause(lits []Lit, learned bool, lbd uint32) uint32 {
	if len(lits) > int(hdrSizeMask) {
		panic("sat: clause exceeds maximum width")
	}
	need := 1 + len(lits)
	if learned {
		need++
	}
	if len(s.arena)+need > maxArenaWords {
		panic("sat: clause arena exhausted")
	}
	ref := uint32(len(s.arena))
	hdr := uint32(len(lits))
	if learned {
		if lbd > hdrLBDMax {
			lbd = hdrLBDMax
		}
		hdr |= hdrLearned | lbd<<hdrLBDShift
	}
	// One capacity check and one slice update for the whole clause, not
	// one per word (loading a dc-256 quotient sub-problem stores ≈ 40,000
	// ternaries here).
	s.arena = slices.Grow(s.arena, need)[:int(ref)+need]
	words := s.arena[ref:]
	words[0] = hdr
	if learned {
		words[1] = math.Float32bits(float32(s.clauseInc))
	}
	words = words[need-len(lits):]
	for j, l := range lits {
		words[j] = uint32(l)
	}
	if learned {
		s.learnts = append(s.learnts, ref)
		s.numLearned++
	} else {
		s.clauses = append(s.clauses, ref)
	}
	w0, w1 := watcher{ref, lits[1]}, watcher{ref, lits[0]}
	if !s.watches.tryPush(lits[0].Not(), w0) {
		s.watches.push(lits[0].Not(), w0)
	}
	if !s.watches.tryPush(lits[1].Not(), w1) {
		s.watches.push(lits[1].Not(), w1)
	}
	return ref
}

// watchClause registers the clause's first two literals in the watch
// lists, each blocking on the other.
func (s *Solver) watchClause(ref uint32) {
	w := s.lits(ref)
	l0, l1 := Lit(w[0]), Lit(w[1])
	s.watches.push(l0.Not(), watcher{ref, l1})
	s.watches.push(l1.Not(), watcher{ref, l0})
}

// markDeleted flags a learned clause for the next GC and accounts its
// storage as wasted. Watchers are purged in batch by cleanWatches.
func (s *Solver) markDeleted(ref uint32) {
	hdr := s.arena[ref]
	if hdr&hdrDeleted != 0 {
		return
	}
	s.arena[ref] = hdr | hdrDeleted
	s.wasted += int(clauseWords(hdr))
	if hdr&hdrLearned != 0 {
		s.numLearned--
	}
}

// cleanWatches removes every watcher whose clause was deleted. Called
// once per reduceDB batch so propagate never has to re-keep (or even
// see) stale entries, and the watcher invariant — each live clause
// watched exactly once under each watched literal, nothing else in any
// list — holds between reductions.
func (s *Solver) cleanWatches() {
	back := s.watches.back
	for i := range s.watches.win {
		w := &s.watches.win[i]
		kept := back[w.off:w.off]
		for _, e := range back[w.off : w.off+w.n] {
			if !s.deleted(e.cref) {
				kept = append(kept, e)
			}
		}
		w.n = uint32(len(kept))
	}
}

// maybeGC compacts the arena when the deleted fraction crosses the
// threshold.
func (s *Solver) maybeGC() {
	if s.wasted > 0 && float64(s.wasted) >= s.gcFrac*float64(len(s.arena)) {
		s.gcArena()
	}
}

// gcArena compacts live clauses into a fresh arena and remaps every
// clause reference: the problem and learnt lists, the watch lists
// (rebuilt from the compacted clauses, preserving the watched-literal
// pairs), and the trail reasons. Tagged binary reasons are untouched —
// binary clauses never lived in the arena. The protocol writes each
// moved clause's new cref into its old header word, which is safe
// because live references are only ever consulted after the owning
// clause has been moved.
func (s *Solver) gcArena() {
	s.ArenaGCs++
	old := s.arena
	s.arena = make([]uint32, 0, len(old)-s.wasted)

	move := func(ref uint32) uint32 {
		hdr := old[ref]
		n := clauseWords(hdr)
		newRef := uint32(len(s.arena))
		s.arena = append(s.arena, old[ref:ref+n]...)
		old[ref] = newRef // forwarding pointer for reason remapping
		return newRef
	}
	for i, ref := range s.clauses {
		s.clauses[i] = move(ref)
	}
	kept := s.learnts[:0]
	for _, ref := range s.learnts {
		if old[ref]&hdrDeleted != 0 {
			continue
		}
		kept = append(kept, move(ref))
	}
	s.learnts = kept
	// Remap reasons through the forwarding pointers. Only assigned
	// variables (the trail) can hold live reasons.
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != refUndef && !isBinRef(r) {
			s.reason[v] = old[r]
		}
	}
	// Rebuild the watch lists in clause order, in their existing windows
	// (each list gets back at most the entries it had).
	for i := range s.watches.win {
		s.watches.win[i].n = 0
	}
	for _, ref := range s.clauses {
		s.watchClause(ref)
	}
	for _, ref := range s.learnts {
		s.watchClause(ref)
	}
	s.wasted = 0
}

// Occurrence lists: every literal's binary-implication list and watch
// list is a window into one backing slice per kind, so a solver holds two
// pointer-free arrays where it would hold two slice headers per literal —
// nothing for the collector to scan and no write barrier on a push.
//
// Three rules make it safe to walk one list while others grow:
//
//  1. A push never moves or reuses a live window other than the pushed
//     list's own. A full list moves — order kept — to a hole or to the
//     backing's tail and leaves its old window behind as a hole.
//  2. propagate never pushes to the list it is filtering: the literal it
//     starts watching is not false, so its negation is not the true
//     literal p whose list is being walked. It reads the backing again
//     after a push that moved a list, because the move may have
//     reallocated it (offsets are kept).
//  3. Whatever rewrites many windows at once (cleanWatches, gcArena,
//     Load's sizing) runs only where no list is being walked.

// window locates one literal's list, back[off : off+n], and says how many
// entries (cap) fit before the list has to move.
type window struct{ off, n, cap uint32 }

// maxListEntries bounds a backing so that every offset fits a uint32.
const maxListEntries = math.MaxUint32

// cell is an entry type whose first word can carry the free-list link
// while the entry is the head of a hole.
type cell[T any] interface {
	link() uint32
	withLink(next uint32) T
}

func (l Lit) link() uint32                   { return uint32(l) }
func (Lit) withLink(next uint32) Lit         { return Lit(next) }
func (w watcher) link() uint32               { return w.cref }
func (watcher) withLink(next uint32) watcher { return watcher{cref: next} }

// lists is the per-literal lists of one kind. Below len(back) everything
// is a live window (entries, then slack up to its cap) or a hole.
type lists[T cell[T]] struct {
	win  []window // indexed by literal
	back []T
	// holes[k] is 1 + the offset of the first hole of capacity class k
	// (room for 2^k entries; an abandoned window of another size is
	// rounded down), 0 if there is none. A hole's first entry links the
	// next hole of its class the same way.
	holes [32]uint32
}

// list returns l's entries. The slice aliases the backing: it is
// invalidated by a push to any list of the same kind.
func (ls *lists[T]) list(l Lit) []T {
	w := ls.win[l]
	return ls.back[w.off : w.off+w.n]
}

// push appends x to l's list.
func (ls *lists[T]) push(l Lit, x T) {
	w := &ls.win[l]
	if w.n == w.cap {
		ls.move(w)
	}
	ls.back[w.off+w.n] = x
	w.n++
}

// tryPush appends x to l's list if its window has room, and reports
// whether it did. It is push's common case, small enough to inline (push
// is not): a hot caller writes `if !ls.tryPush(l, x) { ls.push(l, x) }`
// and pays for a call only when the list has to move.
func (ls *lists[T]) tryPush(l Lit, x T) bool {
	w := &ls.win[l]
	if w.n == w.cap {
		return false
	}
	ls.back[w.off+w.n] = x
	w.n++
	return true
}

// move takes the full list w to a window of the next capacity class, the
// least power of two above its present capacity.
func (ls *lists[T]) move(w *window) {
	k := bits.Len32(w.cap)
	var off uint32
	if k < len(ls.holes) && ls.holes[k] != 0 {
		off = ls.holes[k] - 1
		ls.holes[k] = ls.back[off].link()
	} else {
		off = ls.carve(1 << k)
	}
	copy(ls.back[off:], ls.back[w.off:w.off+w.n])
	if w.cap > 0 {
		var hole T
		class := k - 1 // floor(log2(cap))
		ls.back[w.off] = hole.withLink(ls.holes[class])
		ls.holes[class] = w.off + 1
	}
	w.off, w.cap = off, 1<<k
}

// carve returns the offset of c new entries at the backing's tail. The
// backing doubles when it is full and keeps every offset.
func (ls *lists[T]) carve(c uint64) uint32 {
	off := uint64(len(ls.back))
	end := off + c
	if end > maxListEntries {
		panic("sat: occurrence lists exhausted")
	}
	if end > uint64(cap(ls.back)) {
		ls.back = grow(ls.back, int(max(end, 2*uint64(cap(ls.back)))))
	}
	ls.back = ls.back[:end]
	return uint32(off)
}

// layout places every window, in literal order, at the capacity already
// counted into its cap field, in the present backing when the windows fit
// in it (a reset solver's: fits), else in a new one with an eighth of
// headroom (without it the first push past a window's share — a
// totalizer clause after a load — would double the whole backing). The
// lists must be empty, so no entry of the backing is read before it is
// written.
func (ls *lists[T]) layout() {
	var total uint64
	for i := range ls.win {
		w := &ls.win[i]
		w.off = uint32(total)
		total += uint64(w.cap)
	}
	if total > maxListEntries {
		panic("sat: occurrence lists exhausted")
	}
	if fits(int(total), cap(ls.back)) {
		ls.back = ls.back[:total]
	} else {
		ls.back = make([]T, total, total+total/8)
	}
}

// reset empties every list, keeping both arrays' capacity. The windows
// are cleared before they are truncated (setNumVars extends them into
// their spare capacity and counts on it being zero) and the holes are
// forgotten.
func (ls *lists[T]) reset() {
	ls.win = wipe(ls.win)
	ls.back = ls.back[:0]
	ls.holes = [32]uint32{}
}
