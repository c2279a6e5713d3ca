package sat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkLayout verifies the storage invariant of one kind of occurrence
// list: every window lies inside the backing and holds no more entries
// than it has room for, no two live windows overlap, and no hole on a
// free list overlaps a live window or another hole.
func checkLayout[T cell[T]](t *testing.T, kind string, ls *lists[T]) {
	t.Helper()
	type span struct {
		off, end uint64
		what     string
		id       int // the window's literal, or the hole's class
	}
	var spans []span
	for l, w := range ls.win {
		if w.n > w.cap {
			t.Fatalf("%s[%d]: %d entries in a window of capacity %d", kind, l, w.n, w.cap)
		}
		if w.cap > 0 {
			spans = append(spans, span{uint64(w.off), uint64(w.off) + uint64(w.cap), "window", l})
		}
	}
	for k, head := range ls.holes {
		for at, steps := head, 0; at != 0; at = ls.back[at-1].link() {
			off := uint64(at - 1)
			spans = append(spans, span{off, off + 1<<k, "hole", k})
			if off+1<<k > uint64(len(ls.back)) {
				break // reported below; the link must not be read out of range
			}
			if steps++; steps > len(ls.back) {
				t.Fatalf("%s: free list of class %d loops", kind, k)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i, sp := range spans {
		if sp.end > uint64(len(ls.back)) {
			t.Fatalf("%s: %s %d spans [%d,%d), past the backing's %d entries", kind, sp.what, sp.id, sp.off, sp.end, len(ls.back))
		}
		if i > 0 && spans[i-1].end > sp.off {
			p := spans[i-1]
			t.Fatalf("%s: %s %d [%d,%d) overlaps %s %d [%d,%d)", kind, p.what, p.id, p.off, p.end, sp.what, sp.id, sp.off, sp.end)
		}
	}
}

// checkWatches verifies the full watcher-list invariant:
//   - both kinds of list are laid out soundly (checkLayout);
//   - every live arena clause is watched exactly once under each of its
//     first two literals' negations, and nowhere else;
//   - no watch list contains an entry for a deleted clause (propagate
//     drops them, and reduceDB/gcArena purge them in batch);
//   - every binary clause appears symmetrically in the implication
//     lists: q under p iff p.Not() under q.Not().
func checkWatches(t *testing.T, s *Solver) {
	t.Helper()
	checkLayout(t, "bins", &s.bins)
	checkLayout(t, "watches", &s.watches)
	type key struct {
		ref uint32
		lit Lit
	}
	want := map[key]int{}
	live := map[uint32]bool{}
	for _, list := range [][]uint32{s.clauses, s.learnts} {
		for _, ref := range list {
			if s.deleted(ref) {
				t.Fatalf("clause list contains deleted clause %d", ref)
			}
			live[ref] = true
			w := s.lits(ref)
			want[key{ref, Lit(w[0]).Not()}]++
			want[key{ref, Lit(w[1]).Not()}]++
		}
	}
	got := map[key]int{}
	for i := range s.watches.win {
		for _, w := range s.watches.list(Lit(i)) {
			if s.deleted(w.cref) {
				t.Fatalf("watch list %d holds deleted clause %d", i, w.cref)
			}
			if !live[w.cref] {
				t.Fatalf("watch list %d holds unknown clause ref %d", i, w.cref)
			}
			got[key{w.cref, Lit(i)}]++
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("clause %d watched %d times under %v, want %d", k.ref, got[k], k.lit, n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Fatalf("clause %d has %d stray watchers under %v", k.ref, n, k.lit)
		}
	}
	// Binary implication-list symmetry: clause {p.Not(), q} recorded as
	// q under p must also be recorded as p.Not() under q.Not().
	count := func(list []Lit, l Lit) int {
		n := 0
		for _, x := range list {
			if x == l {
				n++
			}
		}
		return n
	}
	for p := range s.bins.win {
		for _, q := range s.bins.list(Lit(p)) {
			fwd := count(s.bins.list(Lit(p)), q)
			rev := count(s.bins.list(q.Not()), Lit(p).Not())
			if fwd != rev {
				t.Fatalf("binary clause {%v, %v} asymmetric: %d forward vs %d reverse entries",
					Lit(p).Not(), q, fwd, rev)
			}
		}
	}
}

// checkHeap verifies what branching reads: the VSIDS heap is in order on
// its keys, each key is bit-equal to its variable's activity, positions
// and heap entries agree, and every unassigned variable is in the heap
// (pickBranchVar may only skip assigned ones); and each literal's value
// is the complement of its negation's, or both are undefined.
func checkHeap(t *testing.T, s *Solver) {
	t.Helper()
	h := s.order
	if len(h.keys) != len(h.heap) {
		t.Fatalf("heap holds %d variables but %d keys", len(h.heap), len(h.keys))
	}
	for i, v := range h.heap {
		if p := (i - 1) / 2; i > 0 && h.keys[p] < h.keys[i] {
			t.Fatalf("heap order: key %v at %d under key %v at %d", h.keys[i], i, h.keys[p], p)
		}
		if math.Float64bits(h.keys[i]) != math.Float64bits(s.activity[v]) {
			t.Fatalf("heap key of variable %d is %v, its activity %v", v, h.keys[i], s.activity[v])
		}
		if h.pos[v] != int32(i) {
			t.Fatalf("variable %d at heap index %d has position %d", v, i, h.pos[v])
		}
	}
	for v, i := range h.pos {
		if i != -1 && (int(i) >= len(h.heap) || h.heap[i] != Var(v)) {
			t.Fatalf("variable %d has position %d, not its heap index", v, i)
		}
	}
	if len(s.vals) != 2*s.NumVars() {
		t.Fatalf("%d literal values for %d variables", len(s.vals), s.NumVars())
	}
	for v := 0; v < s.NumVars(); v++ {
		l := MkLit(Var(v), false)
		switch a, b := s.vals[l], s.vals[l.Not()]; {
		case a == lUndef && b == lUndef:
			if v >= len(h.pos) || h.pos[v] == -1 {
				t.Fatalf("unassigned variable %d is not in the heap", v)
			}
		case a == lTrue && b == lFalse, a == lFalse && b == lTrue:
		default:
			t.Fatalf("variable %d: values %d and %d for its two literals", v, a, b)
		}
	}
}

// checkInvariants runs every structural check: checkWatches and
// checkHeap.
func checkInvariants(t *testing.T, s *Solver) {
	t.Helper()
	checkWatches(t, s)
	checkHeap(t, s)
}

// TestWatcherInvariantAcrossReductionAndGC drives a solver hard enough
// (tiny reduceDB trigger, aggressive GC threshold) that learned clauses
// are deleted and the arena is compacted repeatedly, then asserts the
// watcher invariant after every Solve: no watcher may reference a
// deleted clause, none may be duplicated, and none may be lost. This
// pins the two propagate/reduceDB bug classes directly: re-keeping a
// watcher whose clause was deleted, and double-appending the conflict
// watcher when breaking out of the watch loop.
func TestWatcherInvariantAcrossReductionAndGC(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nvars := 20 + r.Intn(15)
		s := New()
		s.SetMaxLearned(5)
		s.SetGCWasteFraction(0.01)
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		nclauses := nvars*4 + r.Intn(nvars*2)
		for i := 0; i < nclauses; i++ {
			w := 3 + r.Intn(3)
			var c []Lit
			for j := 0; j < w; j++ {
				c = append(c, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			if !s.AddClause(c...) {
				break
			}
		}
		for round := 0; round < 6 && s.Okay(); round++ {
			var asm []Lit
			for i := r.Intn(4); i > 0; i-- {
				asm = append(asm, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			s.Solve(asm...)
			checkInvariants(t, s)
		}
		if s.DBReductions == 0 && seed == 0 {
			t.Log("warning: seed 0 triggered no reductions; invariant untested under deletion")
		}
	}
}

// TestIncrementalAssumptionStress hammers one solver with many
// assumption solves, interleaved clause additions, and checks model
// validity and watch invariants against a fresh-solver oracle.
func TestIncrementalAssumptionStress(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		nvars := 8 + r.Intn(8)
		s := New()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addRandomClauses := func(n int) bool {
			ok := true
			for i := 0; i < n; i++ {
				var c []Lit
				w := 2 + r.Intn(2)
				for j := 0; j < w; j++ {
					c = append(c, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
				}
				clauses = append(clauses, c)
				if !s.AddClause(c...) {
					ok = false
				}
			}
			return ok
		}
		if !addRandomClauses(15 + r.Intn(30)) {
			continue
		}
		for round := 0; round < 8; round++ {
			nasm := r.Intn(10)
			var asm []Lit
			for i := 0; i < nasm; i++ {
				asm = append(asm, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			st := s.Solve(asm...)
			checkInvariants(t, s)
			// Oracle: fresh solver with clauses + assumptions as units.
			o := New()
			for i := 0; i < nvars; i++ {
				o.NewVar()
			}
			ok := true
			for _, c := range clauses {
				if !o.AddClause(c...) {
					ok = false
				}
			}
			for _, a := range asm {
				if !o.AddClause(a) {
					ok = false
				}
			}
			want := Unsat
			if ok {
				want = o.Solve()
			}
			if st != want {
				if st == Sat {
					for ci, c := range clauses {
						good := false
						for _, l := range c {
							if s.ValueLit(l) {
								good = true
							}
						}
						if !good {
							t.Logf("model violates clause %d %v", ci, c)
						}
					}
					for _, a := range asm {
						if !s.ValueLit(a) {
							t.Logf("model violates assumption %v", a)
						}
					}
				}
				t.Fatalf("seed %d round %d: incremental=%v oracle=%v (asm=%v)", seed, round, st, want, asm)
			}
			if st == Sat {
				// Model must satisfy all clauses and assumptions.
				for ci, c := range clauses {
					good := false
					for _, l := range c {
						if s.ValueLit(l) {
							good = true
						}
					}
					if !good {
						t.Fatalf("seed %d round %d: model violates clause %d %v", seed, round, ci, c)
					}
				}
				for _, a := range asm {
					if !s.ValueLit(a) {
						t.Fatalf("seed %d round %d: model violates assumption %v", seed, round, a)
					}
				}
			}
			if r.Intn(2) == 0 {
				if !addRandomClauses(1 + r.Intn(4)) {
					break
				}
			}
		}
	}
}
